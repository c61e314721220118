#include "serve/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/status.hpp"
#include "hd/serialization.hpp"

namespace pulphd::serve {
namespace {

[[noreturn]] void fail(std::string_view code, const std::string& message) {
  throw CodedError(std::string(code), message);
}

std::string_view strip_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// Pops the next space-separated token off `rest` (empty when exhausted).
std::string_view next_token(std::string_view& rest) {
  const std::size_t start = rest.find_first_not_of(' ');
  if (start == std::string_view::npos) {
    rest = {};
    return {};
  }
  rest.remove_prefix(start);
  const std::size_t end = rest.find(' ');
  const std::string_view token = rest.substr(0, end);
  rest.remove_prefix(end == std::string_view::npos ? rest.size() : end);
  return token;
}

/// Splits a "key=value" token; throws bad-request when the key mismatches.
std::string_view expect_kv(std::string_view token, std::string_view key) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos || token.substr(0, eq) != key) {
    fail(kErrBadRequest,
         "expected " + std::string(key) + "=..., got \"" + std::string(token) + "\"");
  }
  return token.substr(eq + 1);
}

/// Throws bad-request unless nothing but spaces follows on the line.
void expect_end(std::string_view rest, std::string_view after) {
  if (!next_token(rest).empty()) {
    fail(kErrBadRequest, "unexpected trailing fields after " + std::string(after));
  }
}

std::size_t parse_size(std::string_view text, std::string_view what) {
  unsigned long long value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    fail(kErrBadRequest, "malformed " + std::string(what) + " count \"" + std::string(text) + "\"");
  }
  return static_cast<std::size_t>(value);
}

float parse_sample_value(std::string_view text) {
  float value = 0.0f;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    fail(kErrBadRequest, "malformed sample value \"" + std::string(text) + "\"");
  }
  if (!std::isfinite(value)) {
    fail(kErrBadRequest, "non-finite sample value \"" + std::string(text) + "\"");
  }
  return value;
}

void append_float(std::string& out, float value) {
  char buf[32];
  // %.9g round-trips binary32 exactly (9 significant decimal digits).
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(value));
  out += buf;
}

/// Appends `text` with CR/LF flattened to spaces, so a free-form message
/// (an error or reload detail) never breaks its text row in two.
void append_flattened(std::string& out, std::string_view text) {
  for (const char c : text) out += (c == '\n' || c == '\r') ? ' ' : c;
}

// --- Request-shape bounds and names, shared by both wires -------------------

void check_trial_count(std::size_t trials) {
  if (trials == 0) fail(kErrBadRequest, "classify needs trials >= 1");
  if (trials > kMaxTrialsPerRequest) {
    fail(kErrTooLarge, "classify trials=" + std::to_string(trials) +
                           " exceeds the per-request limit of " +
                           std::to_string(kMaxTrialsPerRequest));
  }
}

/// The bound of every sample block: a classify trial or a stream-push body.
void check_sample_count(std::size_t samples, std::string_view kind) {
  if (samples == 0) fail(kErrBadRequest, std::string(kind) + " needs samples >= 1");
  if (samples > kMaxSamplesPerTrial) {
    fail(kErrTooLarge, std::string(kind) + " samples=" + std::to_string(samples) +
                           " exceeds the per-trial limit of " +
                           std::to_string(kMaxSamplesPerTrial));
  }
}

/// Model-independent stream-open shape checks. The model-dependent
/// window >= ngram check happens at execution time.
void validate_stream_shape(std::size_t window, std::size_t hop) {
  if (window == 0) fail(kErrBadRequest, "stream-open needs window >= 1");
  if (hop == 0) fail(kErrBadRequest, "stream-open needs hop >= 1");
  if (window > kMaxSamplesPerTrial) {
    fail(kErrTooLarge, "stream-open window=" + std::to_string(window) +
                           " exceeds the per-trial limit of " +
                           std::to_string(kMaxSamplesPerTrial));
  }
  // Upper bound of the open-window overlap over any model (n >= 1); keeps
  // the per-session counter-slot pool small.
  const std::size_t overlap = (window - 1) / hop + 1;
  if (overlap > kMaxStreamActiveWindows) {
    fail(kErrTooLarge, "stream-open window=" + std::to_string(window) +
                           " hop=" + std::to_string(hop) + " overlaps " +
                           std::to_string(overlap) + " windows, limit is " +
                           std::to_string(kMaxStreamActiveWindows));
  }
}

std::string checked_model_name(std::string_view name) {
  std::string model(name);
  if (!hd::is_valid_model_name(model)) {
    fail(kErrBadRequest, "invalid model name \"" + model + "\"");
  }
  return model;
}

// --- phd1 text rows ---------------------------------------------------------

/// Text model name: consumes an optional leading `model=` token off `rest`
/// ("" when absent = route to the default).
std::string take_model_token(std::string_view& rest) {
  std::string_view after = rest;
  const std::string_view token = next_token(after);
  if (!token.starts_with("model=")) return {};
  rest = after;
  return checked_model_name(token.substr(6));
}

/// Text sample line: one float per channel.
hd::Sample parse_sample_line(std::string_view line, std::string_view kind) {
  hd::Sample sample;
  std::string_view rest = line;
  for (std::string_view token = next_token(rest); !token.empty(); token = next_token(rest)) {
    sample.push_back(parse_sample_value(token));
  }
  if (sample.empty()) {
    fail(kErrBadRequest, "empty sample line inside a " + std::string(kind) + " body");
  }
  return sample;
}

void append_sample_line(std::string& out, const hd::Sample& sample) {
  for (std::size_t c = 0; c < sample.size(); ++c) {
    if (c > 0) out += ' ';
    append_float(out, sample[c]);
  }
  out += '\n';
}

/// Text decision row tail, shared by `result` and `window` rows:
/// " label=L distance=D distances=d0,d1,...\n".
void append_decision_fields(std::string& out, const hd::AmDecision& d) {
  out += " label=";
  out += std::to_string(d.label);
  out += " distance=";
  out += std::to_string(d.distance);
  out += " distances=";
  for (std::size_t i = 0; i < d.distances.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(d.distances[i]);
  }
  out += '\n';
}

/// Checks a decision row's leading keyword; returns the fields after it.
std::string_view decision_row_fields(std::string_view line, std::string_view keyword) {
  std::string_view rest = strip_cr(line);
  if (next_token(rest) != keyword) {
    fail(kErrBadRequest, "expected a \"" + std::string(keyword) + " ...\" line, got \"" +
                             std::string(line) + "\"");
  }
  return rest;
}

hd::AmDecision parse_decision_fields(std::string_view rest, std::string_view keyword) {
  hd::AmDecision decision;
  decision.label = parse_size(expect_kv(next_token(rest), "label"), "label");
  decision.distance = parse_size(expect_kv(next_token(rest), "distance"), "distance");
  std::string_view distances = expect_kv(next_token(rest), "distances");
  while (!distances.empty()) {
    const std::size_t comma = distances.find(',');
    decision.distances.push_back(parse_size(distances.substr(0, comma), "distances"));
    distances.remove_prefix(comma == std::string_view::npos ? distances.size() : comma + 1);
  }
  if (!next_token(rest).empty()) {
    fail(kErrBadRequest, "unexpected trailing fields on a " + std::string(keyword) + " line");
  }
  return decision;
}

// --- phd2 little-endian primitives ------------------------------------------

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void put_f32(std::string& out, float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u32(out, bits);
}

/// A u8-length-prefixed string (model names, error codes). Throws
/// std::invalid_argument rather than wrap the length byte.
void put_str8(std::string& out, std::string_view text) {
  if (text.size() > std::numeric_limits<std::uint8_t>::max()) {
    throw std::invalid_argument("phd2: a name of " + std::to_string(text.size()) +
                                " bytes does not fit its u8 length prefix (max 255)");
  }
  put_u8(out, static_cast<std::uint8_t>(text.size()));
  out += text;
}

/// A u16-length-prefixed free-form message, truncated to 65,535 bytes.
void put_str16(std::string& out, std::string_view text) {
  const std::size_t len =
      std::min<std::size_t>(text.size(), std::numeric_limits<std::uint16_t>::max());
  put_u16(out, static_cast<std::uint16_t>(len));
  out.append(text.data(), len);
}

/// A payload under construction, starting with its frame-type byte.
std::string payload_of(std::uint8_t type) { return std::string(1, static_cast<char>(type)); }

/// Wraps a finished payload in the u32 length prefix.
std::string frame(std::string payload) {
  std::string out;
  out.reserve(4 + payload.size());
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out += payload;
  return out;
}

/// Binary sample block: u32 samples, u16 channels, then samples x channels
/// float32 values. Throws std::invalid_argument on shapes the block cannot
/// carry (ragged samples, more than 65,535 channels) instead of regrouping
/// or truncating the values.
void put_sample_block(std::string& out, std::span<const hd::Sample> samples) {
  const std::size_t channels = samples.empty() ? 0 : samples.front().size();
  if (channels > std::numeric_limits<std::uint16_t>::max()) {
    throw std::invalid_argument("phd2: " + std::to_string(channels) +
                                " channels exceed the u16 channel count");
  }
  for (std::size_t s = 0; s < samples.size(); ++s) {
    if (samples[s].size() != channels) {
      throw std::invalid_argument("phd2: ragged sample block (sample " + std::to_string(s) +
                                  " has " + std::to_string(samples[s].size()) +
                                  " values, sample 0 has " + std::to_string(channels) + ")");
    }
  }
  put_u32(out, static_cast<std::uint32_t>(samples.size()));
  put_u16(out, static_cast<std::uint16_t>(channels));
  for (const hd::Sample& sample : samples) {
    for (const float value : sample) put_f32(out, value);
  }
}

/// Binary decision list: u32 count, then per decision u32 label, u32
/// distance, u32 class count and that many u32 distances.
void put_decisions(std::string& out, std::span<const hd::AmDecision> decisions) {
  put_u32(out, static_cast<std::uint32_t>(decisions.size()));
  for (const hd::AmDecision& d : decisions) {
    put_u32(out, static_cast<std::uint32_t>(d.label));
    put_u32(out, static_cast<std::uint32_t>(d.distance));
    put_u32(out, static_cast<std::uint32_t>(d.distances.size()));
    for (const std::size_t distance : d.distances) {
      put_u32(out, static_cast<std::uint32_t>(distance));
    }
  }
}

/// Sequential reader over one frame payload; every read checks bounds and
/// fails with bad-request naming the frame's kind, so a truncated body can
/// never read out of the frame.
class PayloadReader {
 public:
  PayloadReader(std::string_view payload, std::string_view kind) : data_(payload), kind_(kind) {}

  std::string_view kind() const noexcept { return kind_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

  std::uint8_t u8(std::string_view what) {
    need(1, what);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint16_t u16(std::string_view what) {
    need(2, what);
    std::uint16_t v = 0;
    for (int i = 1; i >= 0; --i) {
      v = static_cast<std::uint16_t>((v << 8) | static_cast<std::uint8_t>(data_[pos_ + i]));
    }
    pos_ += 2;
    return v;
  }

  std::uint32_t u32(std::string_view what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<std::uint8_t>(data_[pos_ + i]);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64(std::string_view what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<std::uint8_t>(data_[pos_ + i]);
    }
    pos_ += 8;
    return v;
  }

  float f32(std::string_view what) {
    const std::uint32_t bits = u32(what);
    float v = 0.0f;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string_view bytes(std::size_t count, std::string_view what) {
    need(count, what);
    const std::string_view view = data_.substr(pos_, count);
    pos_ += count;
    return view;
  }

  /// The readers of put_str8 / put_str16.
  std::string str8(std::string_view what) { return std::string(bytes(u8(what), what)); }
  std::string str16(std::string_view what) { return std::string(bytes(u16(what), what)); }

  void expect_exhausted() {
    if (remaining() != 0) {
      fail(kErrBadRequest, std::string(kind_) + " frame has " + std::to_string(remaining()) +
                               " trailing byte(s) past its declared content");
    }
  }

 private:
  void need(std::size_t count, std::string_view what) {
    if (remaining() < count) {
      fail(kErrBadRequest, std::string(kind_) + " frame truncated inside " + std::string(what) +
                               " (need " + std::to_string(count) + " more byte(s), have " +
                               std::to_string(remaining()) + ")");
    }
  }

  std::string_view data_;
  std::string_view kind_;
  std::size_t pos_ = 0;
};

/// Binary model name: the u8-length-prefixed name ("" = route to the
/// default).
std::string read_model_name(PayloadReader& reader) {
  const std::string name = reader.str8("model name");
  return name.empty() ? name : checked_model_name(name);
}

hd::Trial read_sample_block(PayloadReader& reader) {
  const std::uint32_t samples = reader.u32("sample count");
  const std::uint16_t channels = reader.u16("channel count");
  check_sample_count(samples, reader.kind());
  if (channels == 0) fail(kErrBadRequest, std::string(reader.kind()) + " needs channels >= 1");
  hd::Trial block;
  block.reserve(samples);
  for (std::uint32_t s = 0; s < samples; ++s) {
    hd::Sample sample;
    sample.reserve(channels);
    for (std::uint16_t c = 0; c < channels; ++c) {
      const float value = reader.f32("samples");
      if (!std::isfinite(value)) {
        fail(kErrBadRequest, "non-finite sample value in " + std::string(reader.kind()));
      }
      sample.push_back(value);
    }
    block.push_back(std::move(sample));
  }
  return block;
}

std::vector<hd::AmDecision> read_decisions(PayloadReader& reader) {
  const std::uint32_t count = reader.u32("decision count");
  std::vector<hd::AmDecision> decisions;
  for (std::uint32_t i = 0; i < count; ++i) {
    hd::AmDecision decision;
    decision.label = reader.u32("decision label");
    decision.distance = reader.u32("decision distance");
    const std::uint32_t classes = reader.u32("decision class count");
    // The count came off the wire: cap the reserve by what the frame can
    // actually hold (4 bytes per distance), so a corrupt count fails in the
    // bounds-checked read below instead of attempting a multi-gigabyte
    // allocation here.
    decision.distances.reserve(std::min<std::size_t>(classes, reader.remaining() / 4));
    for (std::uint32_t c = 0; c < classes; ++c) {
      decision.distances.push_back(reader.u32("decision distances"));
    }
    decisions.push_back(std::move(decision));
  }
  return decisions;
}

/// Pops one length-prefixed frame's payload off the front of `buffer`;
/// std::nullopt while it is incomplete. A declared length over `limit`
/// discards the buffer (it can no longer be delimited) and throws `code`.
std::optional<std::string> pop_frame(std::string& buffer, std::size_t limit,
                                     std::string_view code) {
  if (buffer.size() < 4) return std::nullopt;
  const std::uint32_t length = PayloadReader(buffer, "frame").u32("length prefix");
  if (length > limit) {
    buffer.clear();
    fail(code, "frame declares " + std::to_string(length) + " payload bytes, limit is " +
                   std::to_string(limit));
  }
  if (buffer.size() < 4u + length) return std::nullopt;
  std::string payload = buffer.substr(4, length);
  buffer.erase(0, 4u + length);
  return payload;
}

/// The request kind (phd1 command token) a phd2 request frame type carries.
std::string_view request_kind(std::uint8_t type) {
  switch (type) {
    case kFramePing:
      return "ping";
    case kFrameModels:
      return "models";
    case kFrameQuit:
      return "quit";
    case kFrameClassify:
      return "classify";
    case kFrameReload:
      return "reload";
    case kFrameStreamOpen:
      return "stream-open";
    case kFrameStreamPush:
      return "stream-push";
    case kFrameStreamClose:
      return "stream-close";
    default:
      fail(kErrBadRequest,
           "unknown request frame type " + std::to_string(static_cast<unsigned>(type)));
  }
}

Request decode_request_body(std::uint8_t type, PayloadReader& reader) {
  switch (type) {
    case kFramePing:
      return PingRequest{};
    case kFrameModels:
      return ModelsRequest{};
    case kFrameQuit:
      return QuitRequest{};
    case kFrameClassify: {
      ClassifyRequest request;
      request.model = read_model_name(reader);
      const std::uint32_t trials = reader.u32("trial count");
      check_trial_count(trials);
      request.trials.reserve(trials);
      for (std::uint32_t t = 0; t < trials; ++t) {
        request.trials.push_back(read_sample_block(reader));
      }
      return request;
    }
    case kFrameReload:
      return ReloadRequest{read_model_name(reader)};
    case kFrameStreamOpen: {
      StreamOpenRequest request;
      request.model = read_model_name(reader);
      request.window = reader.u32("window");
      request.hop = reader.u32("hop");
      return request;
    }
    case kFrameStreamPush:
      return StreamPushRequest{read_sample_block(reader)};
    default:
      return StreamCloseRequest{};
  }
}

Request decode_request_payload(std::string_view payload) {
  if (payload.empty()) fail(kErrBadRequest, "empty frame (no type byte)");
  const auto type = static_cast<std::uint8_t>(payload.front());
  PayloadReader reader(payload.substr(1), request_kind(type));
  Request request = decode_request_body(type, reader);
  reader.expect_exhausted();
  if (const auto* open = std::get_if<StreamOpenRequest>(&request)) {
    validate_stream_shape(open->window, open->hop);
  }
  return request;
}

}  // namespace

// --- phd1 text request parser -------------------------------------------------

std::optional<Request> RequestParser::consume_line(std::string_view line) {
  line = strip_cr(line);
  const bool was_mid_body = !idle();
  framing_lost_ = false;
  try {
    if (!pending_) return consume_header(line);
    if (remaining_samples_ == 0) {
      consume_trial_header(line);
      return std::nullopt;
    }
    block_->push_back(parse_sample_line(line, body_kind()));
    if (--remaining_samples_ > 0 || remaining_trials_ > 0) return std::nullopt;
    Request done = std::move(*pending_);
    pending_.reset();
    return done;
  } catch (...) {
    // Reset to idle so one bad request never poisons the next; the caller
    // checks framing_lost() to decide whether the connection survives.
    pending_.reset();
    remaining_trials_ = 0;
    remaining_samples_ = 0;
    if (was_mid_body) framing_lost_ = true;
    throw;
  }
}

std::optional<Request> RequestParser::consume_header(std::string_view line) {
  std::string_view rest = line;
  const std::string_view version = next_token(rest);
  if (version.empty()) return std::nullopt;  // blank lines between requests are ignored
  if (version != kProtocolVersionToken) {
    fail(kErrUnsupportedVersion, "unsupported protocol version \"" + std::string(version) +
                                     "\" (this server speaks " +
                                     std::string(kProtocolVersionToken) + ")");
  }
  const std::string_view command = next_token(rest);
  if (command == "ping" || command == "models" || command == "quit" ||
      command == "stream-close") {
    expect_end(rest, command);
    if (command == "ping") return Request{PingRequest{}};
    if (command == "models") return Request{ModelsRequest{}};
    if (command == "quit") return Request{QuitRequest{}};
    return Request{StreamCloseRequest{}};
  }
  if (command == "reload") {
    ReloadRequest request{take_model_token(rest)};
    expect_end(rest, "reload");
    return Request{std::move(request)};
  }
  if (command == "stream-open") {
    StreamOpenRequest request;
    request.model = take_model_token(rest);
    request.window = parse_size(expect_kv(next_token(rest), "window"), "window");
    request.hop = parse_size(expect_kv(next_token(rest), "hop"), "hop");
    expect_end(rest, "hop=");
    validate_stream_shape(request.window, request.hop);
    return Request{std::move(request)};
  }
  if (command != "classify" && command != "stream-push") {
    fail(kErrBadRequest, "unknown command \"" + std::string(command) + "\"");
  }
  // From here any failure loses framing: a pipelining client has already
  // sent the body lines this header announces.
  framing_lost_ = true;
  if (command == "classify") {
    ClassifyRequest request;
    request.model = take_model_token(rest);
    const std::size_t trials = parse_size(expect_kv(next_token(rest), "trials"), "trials");
    expect_end(rest, "trials=");
    check_trial_count(trials);
    request.trials.reserve(trials);
    pending_ = std::move(request);
    remaining_trials_ = trials;
  } else {
    // A stream-push body is one sample block without a "trial" line.
    begin_block(std::get<StreamPushRequest>(pending_.emplace(StreamPushRequest{})).samples, rest);
  }
  framing_lost_ = false;  // header parsed fully; body lines frame normally
  return std::nullopt;
}

void RequestParser::consume_trial_header(std::string_view line) {
  std::string_view rest = line;
  if (next_token(rest) != "trial") {
    fail(kErrBadRequest,
         "expected a \"trial samples=...\" line, got \"" + std::string(line) + "\"");
  }
  --remaining_trials_;
  begin_block(std::get<ClassifyRequest>(*pending_).trials.emplace_back(), rest);
}

void RequestParser::begin_block(hd::Trial& block, std::string_view rest) {
  const std::size_t samples = parse_size(expect_kv(next_token(rest), "samples"), "samples");
  expect_end(rest, "samples=");
  check_sample_count(samples, body_kind());
  block.reserve(samples);
  block_ = &block;
  remaining_samples_ = samples;
}

std::string_view RequestParser::body_kind() const {
  return std::holds_alternative<StreamPushRequest>(*pending_) ? "stream-push" : "classify";
}

// --- Client-side text helpers ----------------------------------------------------

std::string format_classify_request(const std::string& model,
                                    std::span<const hd::Trial> trials) {
  std::string out = std::string(kProtocolVersionToken) + " classify";
  if (!model.empty()) out += " model=" + model;
  out += " trials=" + std::to_string(trials.size()) + "\n";
  for (const hd::Trial& trial : trials) {
    out += "trial samples=" + std::to_string(trial.size()) + "\n";
    for (const hd::Sample& sample : trial) append_sample_line(out, sample);
  }
  return out;
}

hd::AmDecision parse_result_line(std::string_view line) {
  return parse_decision_fields(decision_row_fields(line, "result"), "result");
}

std::pair<std::uint64_t, hd::AmDecision> parse_window_line(std::string_view line) {
  std::string_view rest = decision_row_fields(line, "window");
  const std::uint64_t index = parse_size(expect_kv(next_token(rest), "index"), "index");
  return {index, parse_decision_fields(rest, "window")};
}

// --- phd2 binary request parser ----------------------------------------------

std::optional<Request> BinaryRequestParser::next() {
  // The length prefix itself is the framing: once it exceeds the limit the
  // stream can no longer be delimited, so the connection must go.
  framing_lost_ = true;
  const std::optional<std::string> payload = pop_frame(buffer_, max_frame_bytes_, kErrTooLarge);
  framing_lost_ = false;
  if (!payload) return std::nullopt;
  // Any decode failure below happened inside a fully delimited frame: the
  // frame is already consumed, so the connection stays frameable.
  return decode_request_payload(*payload);
}

// --- Responses, in either wire encoding ------------------------------------------

std::string ResponseEncoder::pong() const {
  return wire_ == Wire::kText ? "ok pong\n" : frame(payload_of(kFramePong));
}

std::string ResponseEncoder::bye() const {
  return wire_ == Wire::kText ? "ok bye\n" : frame(payload_of(kFrameBye));
}

std::string ResponseEncoder::models(std::span<const ModelInfo> models) const {
  if (wire_ == Wire::kText) {
    std::string out = "ok models count=" + std::to_string(models.size()) + "\n";
    for (const ModelInfo& m : models) {
      out += "model name=" + m.name + " dim=" + std::to_string(m.dim) +
             " channels=" + std::to_string(m.channels) +
             " classes=" + std::to_string(m.classes) + " ngram=" + std::to_string(m.ngram) +
             " default=" + (m.is_default ? "1" : "0") + "\n";
    }
    return out;
  }
  std::string payload = payload_of(kFrameModelList);
  put_u32(payload, static_cast<std::uint32_t>(models.size()));
  for (const ModelInfo& m : models) {
    put_str8(payload, m.name);
    put_u32(payload, static_cast<std::uint32_t>(m.dim));
    put_u32(payload, static_cast<std::uint32_t>(m.channels));
    put_u32(payload, static_cast<std::uint32_t>(m.classes));
    put_u32(payload, static_cast<std::uint32_t>(m.ngram));
    put_u8(payload, m.is_default ? 1 : 0);
  }
  return frame(std::move(payload));
}

std::string ResponseEncoder::classify(const std::string& model,
                                      std::span<const hd::AmDecision> decisions) const {
  if (wire_ == Wire::kText) {
    std::string out =
        "ok classify model=" + model + " results=" + std::to_string(decisions.size()) + "\n";
    for (const hd::AmDecision& d : decisions) {
      out += "result";
      append_decision_fields(out, d);
    }
    return out;
  }
  std::string payload = payload_of(kFrameResults);
  put_str8(payload, model);
  put_decisions(payload, decisions);
  return frame(std::move(payload));
}

std::string ResponseEncoder::reload(std::span<const ReloadStatus> statuses) const {
  if (wire_ == Wire::kText) {
    std::string out = "ok reload count=" + std::to_string(statuses.size()) + "\n";
    for (const ReloadStatus& s : statuses) {
      out += "reload model=" + s.name + " ok=" + (s.ok ? "1" : "0");
      if (!s.message.empty()) {
        out += " msg=";
        append_flattened(out, s.message);
      }
      out += '\n';
    }
    return out;
  }
  std::string payload = payload_of(kFrameReloadResult);
  put_u32(payload, static_cast<std::uint32_t>(statuses.size()));
  for (const ReloadStatus& s : statuses) {
    put_str8(payload, s.name);
    put_u8(payload, s.ok ? 1 : 0);
    put_str16(payload, s.message);
  }
  return frame(std::move(payload));
}

std::string ResponseEncoder::stream_opened(const std::string& model, std::size_t window,
                                           std::size_t hop) const {
  if (wire_ == Wire::kText) {
    return "ok stream-open model=" + model + " window=" + std::to_string(window) +
           " hop=" + std::to_string(hop) + "\n";
  }
  std::string payload = payload_of(kFrameStreamOpened);
  put_str8(payload, model);
  put_u32(payload, static_cast<std::uint32_t>(window));
  put_u32(payload, static_cast<std::uint32_t>(hop));
  return frame(std::move(payload));
}

std::string ResponseEncoder::stream_windows(std::uint64_t first_index,
                                            std::span<const hd::AmDecision> decisions) const {
  if (wire_ == Wire::kText) {
    std::string out = "ok stream-push windows=" + std::to_string(decisions.size()) + "\n";
    for (std::size_t w = 0; w < decisions.size(); ++w) {
      out += "window index=" + std::to_string(first_index + w);
      append_decision_fields(out, decisions[w]);
    }
    return out;
  }
  std::string payload = payload_of(kFrameStreamWindows);
  put_u64(payload, first_index);
  put_decisions(payload, decisions);
  return frame(std::move(payload));
}

std::string ResponseEncoder::stream_closed(std::uint64_t windows) const {
  if (wire_ == Wire::kText) return "ok stream-close windows=" + std::to_string(windows) + "\n";
  std::string payload = payload_of(kFrameStreamClosed);
  put_u64(payload, windows);
  return frame(std::move(payload));
}

std::string ResponseEncoder::error(std::string_view code, std::string_view message,
                                   bool fatal) const {
  if (wire_ == Wire::kText) {
    std::string out = "err code=" + std::string(code) + " msg=";
    append_flattened(out, message);
    out += '\n';
    return out;
  }
  std::string payload = payload_of(kFrameError);
  put_str8(payload, code);
  put_str16(payload, message);
  put_u8(payload, fatal ? 1 : 0);
  return frame(std::move(payload));
}

// --- Client-side binary helpers ----------------------------------------------

std::string format_binary_command(std::uint8_t type) { return frame(payload_of(type)); }

std::string format_binary_reload_request(const std::string& model) {
  std::string payload = payload_of(kFrameReload);
  put_str8(payload, model);
  return frame(std::move(payload));
}

std::string format_binary_classify_request(const std::string& model,
                                           std::span<const hd::Trial> trials) {
  std::string payload = payload_of(kFrameClassify);
  put_str8(payload, model);
  put_u32(payload, static_cast<std::uint32_t>(trials.size()));
  for (const hd::Trial& trial : trials) put_sample_block(payload, trial);
  return frame(std::move(payload));
}

std::string format_binary_stream_open_request(const std::string& model, std::uint32_t window,
                                              std::uint32_t hop) {
  std::string payload = payload_of(kFrameStreamOpen);
  put_str8(payload, model);
  put_u32(payload, window);
  put_u32(payload, hop);
  return frame(std::move(payload));
}

std::string format_binary_stream_push_request(std::span<const hd::Sample> samples) {
  std::string payload = payload_of(kFrameStreamPush);
  put_sample_block(payload, samples);
  return frame(std::move(payload));
}

namespace {

/// Decodes a text `err code=CODE msg=TEXT` line (without its newline).
BinaryResponse text_refusal(std::string_view line) {
  constexpr std::string_view kCode = "err code=";
  constexpr std::string_view kMsg = " msg=";
  const std::size_t msg = line.find(kMsg);
  if (!line.starts_with(kCode) || msg == std::string_view::npos || msg == kCode.size()) {
    fail(kErrBadRequest, "malformed text error line before the first response frame");
  }
  BinaryResponse response;
  response.type = kFrameError;
  response.error_code = std::string(line.substr(kCode.size(), msg - kCode.size()));
  response.error_message = std::string(line.substr(msg + kMsg.size()));
  response.fatal = true;  // the server closes a refused connection
  return response;
}

}  // namespace

std::optional<BinaryResponse> BinaryResponseParser::next() {
  if (!decoded_any_ && buffer_.starts_with("err ")) {
    const std::size_t eol = buffer_.find('\n');
    if (eol == std::string::npos) {
      if (buffer_.size() > kMaxLineBytes) {
        buffer_.clear();
        fail(kErrBadRequest, "text error line exceeds " + std::to_string(kMaxLineBytes) +
                                 " bytes");
      }
      return std::nullopt;
    }
    BinaryResponse response = text_refusal(std::string_view(buffer_).substr(0, eol));
    buffer_.erase(0, eol + 1);
    decoded_any_ = true;
    return response;
  }
  const std::optional<std::string> payload = pop_frame(buffer_, kMaxFrameBytes, kErrBadRequest);
  if (!payload) return std::nullopt;
  decoded_any_ = true;
  PayloadReader reader(*payload, "response");
  BinaryResponse response;
  response.type = reader.u8("response type");
  switch (response.type) {
    case kFramePong:
    case kFrameBye:
      break;
    case kFrameModelList: {
      const std::uint32_t count = reader.u32("model count");
      for (std::uint32_t i = 0; i < count; ++i) {
        ModelInfo info;
        info.name = reader.str8("model name");
        info.dim = reader.u32("model dim");
        info.channels = reader.u32("model channels");
        info.classes = reader.u32("model classes");
        info.ngram = reader.u32("model ngram");
        info.is_default = reader.u8("model default flag") != 0;
        response.models.push_back(std::move(info));
      }
      break;
    }
    case kFrameResults:
      response.model = reader.str8("result model name");
      response.decisions = read_decisions(reader);
      break;
    case kFrameReloadResult: {
      const std::uint32_t count = reader.u32("reload count");
      for (std::uint32_t i = 0; i < count; ++i) {
        ReloadStatus status;
        status.name = reader.str8("reload model name");
        status.ok = reader.u8("reload ok flag") != 0;
        status.message = reader.str16("reload message");
        response.reloads.push_back(std::move(status));
      }
      break;
    }
    case kFrameStreamOpened:
      response.model = reader.str8("stream-open model name");
      response.window = reader.u32("stream-open window");
      response.hop = reader.u32("stream-open hop");
      break;
    case kFrameStreamWindows:
      response.first_window = reader.u64("stream window index");
      response.decisions = read_decisions(reader);
      break;
    case kFrameStreamClosed:
      response.windows_total = reader.u64("stream-close window count");
      break;
    case kFrameError:
      response.error_code = reader.str8("error code");
      response.error_message = reader.str16("error message");
      response.fatal = reader.u8("error fatal flag") != 0;
      break;
    default:
      fail(kErrBadRequest,
           "unknown response frame type " + std::to_string(static_cast<unsigned>(response.type)));
  }
  reader.expect_exhausted();
  return response;
}

// --- Connection session: negotiation + unified framing -----------------------

ConnectionSession::ConnectionSession() : ConnectionSession(Limits{}) {}

ConnectionSession::ConnectionSession(Limits limits)
    : limits_(limits), binary_(limits.max_frame_bytes) {}

bool ConnectionSession::mid_request() const noexcept {
  switch (mode_) {
    case Mode::kNegotiating:
      return !line_buffer_.empty();
    case Mode::kText:
      return !line_buffer_.empty() || !text_.idle();
    case Mode::kBinary:
      return !binary_.idle();
    case Mode::kDead:
      return false;
  }
  return false;
}

std::vector<WireEvent> ConnectionSession::consume(std::string_view bytes) {
  std::vector<WireEvent> events;
  if (mode_ == Mode::kDead) return events;
  if (mode_ == Mode::kNegotiating) {
    line_buffer_.append(bytes.data(), bytes.size());
    const std::size_t probe = std::min(line_buffer_.size(), kBinaryMagic.size());
    if (std::string_view(line_buffer_).substr(0, probe) != kBinaryMagic.substr(0, probe)) {
      // Not (a prefix of) the magic: a text connection. No valid phd1 line
      // starts with 'P', so this cannot misfire on real text traffic.
      mode_ = Mode::kText;
      const std::string pending = std::move(line_buffer_);
      line_buffer_.clear();
      consume_text(pending, events);
    } else if (line_buffer_.size() >= kBinaryMagic.size()) {
      mode_ = Mode::kBinary;
      const std::string pending = line_buffer_.substr(kBinaryMagic.size());
      line_buffer_.clear();
      consume_binary(pending, events);
    }
    // else: a strict prefix of the magic — wait for more bytes.
    return events;
  }
  if (mode_ == Mode::kText) {
    consume_text(bytes, events);
  } else {
    consume_binary(bytes, events);
  }
  return events;
}

void ConnectionSession::consume_text(std::string_view bytes, std::vector<WireEvent>& events) {
  const ResponseEncoder encoder(Wire::kText);
  // An over-long line, terminated or not, loses framing: the session must
  // not wait for a terminator that may never come.
  const auto line_too_long = [&] {
    mode_ = Mode::kDead;
    events.push_back(
        {std::nullopt,
         encoder.error(kErrTooLarge,
                       "line exceeds " + std::to_string(limits_.max_line_bytes) + " bytes"),
         true});
  };
  line_buffer_.append(bytes.data(), bytes.size());
  std::size_t start = 0;
  while (mode_ == Mode::kText) {
    const std::size_t newline = line_buffer_.find('\n', start);
    if (newline == std::string::npos) {
      line_buffer_.erase(0, start);
      if (line_buffer_.size() > limits_.max_line_bytes) line_too_long();
      return;
    }
    if (newline - start > limits_.max_line_bytes) {
      line_too_long();
      return;
    }
    const std::string_view line(line_buffer_.data() + start, newline - start);
    try {
      if (auto request = text_.consume_line(line)) {
        events.push_back({std::move(request), {}, false});
      }
    } catch (const CodedError& e) {
      const bool drop = text_.framing_lost();
      if (drop) mode_ = Mode::kDead;
      events.push_back({std::nullopt, encoder.error(e.code(), e.what()), drop});
      if (drop) return;
    }
    start = newline + 1;
  }
  line_buffer_.erase(0, start);
}

void ConnectionSession::consume_binary(std::string_view bytes, std::vector<WireEvent>& events) {
  binary_.feed(bytes);
  while (true) {
    try {
      auto request = binary_.next();
      if (!request.has_value()) return;
      events.push_back({std::move(request), {}, false});
    } catch (const CodedError& e) {
      const bool drop = binary_.framing_lost();
      if (drop) mode_ = Mode::kDead;
      events.push_back(
          {std::nullopt, ResponseEncoder(Wire::kBinary).error(e.code(), e.what(), drop), drop});
      if (drop) return;
    }
  }
}

}  // namespace pulphd::serve
