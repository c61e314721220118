#include "serve/registry.hpp"

#include <stdexcept>
#include <utility>

#include "common/status.hpp"
#include "hd/serialization.hpp"

namespace pulphd::serve {
namespace {

/// Builds the ready-to-route entry a load_file/reload publishes. Pure
/// function of the file contents — called with no registry lock held.
ModelSnapshot entry_from_file(const std::string& name, const std::string& path,
                              std::size_t threads) {
  const hd::ClassifierModel model = hd::load_model_file(path);
  hd::HdClassifier classifier = hd::classifier_from_model(model);
  classifier.set_threads(threads);
  return std::make_shared<const ModelEntry>(ModelEntry{name, std::move(classifier), path});
}

}  // namespace

ModelRegistry::Slot* ModelRegistry::find_locked(const std::string& name) {
  for (Slot& slot : slots_) {
    if (slot.name == name) return &slot;
  }
  return nullptr;
}

const ModelRegistry::Slot* ModelRegistry::find_locked(const std::string& name) const {
  for (const Slot& slot : slots_) {
    if (slot.name == name) return &slot;
  }
  return nullptr;
}

ModelSnapshot ModelRegistry::add(const std::string& name, hd::HdClassifier classifier,
                                 std::string source_path) {
  if (!hd::is_valid_model_name(name)) {
    throw std::runtime_error("ModelRegistry: invalid model name \"" + name +
                             "\" (want 1..64 chars of [A-Za-z0-9._-])");
  }
  auto entry = std::make_shared<const ModelEntry>(
      ModelEntry{name, std::move(classifier), std::move(source_path)});
  const MutexLock lock(mutex_);
  if (find_locked(name) != nullptr) {
    throw std::runtime_error("ModelRegistry: duplicate model name \"" + name + "\"");
  }
  slots_.push_back(Slot{name, entry});
  if (default_name_.empty()) default_name_ = name;
  return entry;
}

ModelSnapshot ModelRegistry::load_file(const std::string& name, const std::string& path,
                                       std::size_t threads) {
  hd::ClassifierModel model;
  try {
    model = hd::load_model_file(path);
  } catch (const std::exception& e) {
    // load_model_file already names the path; prepend the routing name so a
    // multi-model startup failure says exactly which --model argument broke.
    const std::string who = name.empty() ? "<unnamed>" : name;
    throw std::runtime_error("ModelRegistry: loading model \"" + who + "\": " + e.what());
  }
  const std::string resolved = name.empty() ? model.name : name;
  if (resolved.empty()) {
    throw std::runtime_error("ModelRegistry: " + path +
                             " embeds no model name (serialization v1?); register it as "
                             "NAME=" +
                             path);
  }
  try {
    hd::HdClassifier classifier = hd::classifier_from_model(model);
    classifier.set_threads(threads);
    return add(resolved, std::move(classifier), path);
  } catch (const std::exception& e) {
    throw std::runtime_error("ModelRegistry: loading model \"" + resolved + "\" from " + path +
                             ": " + e.what());
  }
}

void ModelRegistry::set_default(const std::string& name) {
  const MutexLock lock(mutex_);
  if (find_locked(name) == nullptr) {
    throw std::runtime_error("ModelRegistry: cannot default to unregistered model \"" + name +
                             "\"");
  }
  default_name_ = name;
}

ModelSnapshot ModelRegistry::resolve(const std::string& name) const {
  const MutexLock lock(mutex_);
  if (slots_.empty()) {
    throw CodedError(std::string(kErrUnknownModel), "no models are registered");
  }
  const std::string& wanted = name.empty() ? default_name_ : name;
  const Slot* slot = find_locked(wanted);
  if (slot == nullptr) {
    std::string known;
    for (const Slot& s : slots_) {
      if (!known.empty()) known += ", ";
      known += s.name;
    }
    throw CodedError(std::string(kErrUnknownModel),
                     "unknown model \"" + wanted + "\" (registered: " + known + ")");
  }
  return slot->current;
}

ReloadStatus ModelRegistry::reload(const std::string& name) {
  std::string path;
  std::size_t threads = 1;
  {
    const MutexLock lock(mutex_);
    const Slot* slot = find_locked(name);
    if (slot == nullptr) {
      return ReloadStatus{name, false, "unknown model \"" + name + "\""};
    }
    path = slot->current->source_path;
    threads = slot->current->classifier.config().threads;
  }
  if (path.empty()) {
    return ReloadStatus{name, false,
                        "model \"" + name + "\" was registered in memory; no file to reload"};
  }
  // Disk read + classifier rebuild run with no lock held: a slow or
  // failing reload must never stall resolve() on the classify path.
  ModelSnapshot fresh;
  try {
    fresh = entry_from_file(name, path, threads);
  } catch (const std::exception& e) {
    // The previously published snapshot stays in place — readers keep
    // serving the old model bit-identically.
    return ReloadStatus{name, false, e.what()};
  }
  const MutexLock lock(mutex_);
  Slot* slot = find_locked(name);
  if (slot == nullptr) {
    return ReloadStatus{name, false, "model \"" + name + "\" disappeared during reload"};
  }
  slot->current = std::move(fresh);
  return ReloadStatus{name, true, ""};
}

std::vector<ReloadStatus> ModelRegistry::reload_all() {
  std::vector<std::string> names;
  {
    const MutexLock lock(mutex_);
    names.reserve(slots_.size());
    for (const Slot& slot : slots_) names.push_back(slot.name);
  }
  std::vector<ReloadStatus> results;
  results.reserve(names.size());
  for (const std::string& name : names) results.push_back(reload(name));
  return results;
}

std::size_t ModelRegistry::size() const {
  const MutexLock lock(mutex_);
  return slots_.size();
}

bool ModelRegistry::empty() const {
  const MutexLock lock(mutex_);
  return slots_.empty();
}

std::string ModelRegistry::default_name() const {
  const MutexLock lock(mutex_);
  return default_name_;
}

std::vector<ModelInfo> ModelRegistry::infos() const {
  const MutexLock lock(mutex_);
  std::vector<ModelInfo> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    const hd::ClassifierConfig& cfg = slot.current->classifier.config();
    out.push_back(ModelInfo{slot.name, cfg.dim, cfg.channels, cfg.classes, cfg.ngram,
                            slot.name == default_name_});
  }
  return out;
}

}  // namespace pulphd::serve
