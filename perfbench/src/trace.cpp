#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <unordered_map>

namespace {

thread_local bool t_counting = false;
thread_local std::uint64_t t_allocated = 0;

void* counted_alloc(std::size_t size) {
  if (t_counting) t_allocated += size;
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Global allocation replacements: plain malloc/free, plus the byte count
// AllocScope reads. Aligned forms keep the library's defaults.
void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace perfbench {

AllocScope::AllocScope() : start_(t_allocated) { t_counting = true; }
AllocScope::~AllocScope() { t_counting = false; }
std::uint64_t AllocScope::bytes() const noexcept { return t_allocated - start_; }

std::map<std::string, std::vector<double>> self_ns_per_unit(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans) {
    const auto it = child_ns.find(s.id);
    const std::int64_t self = s.end_ns - s.start_ns - (it == child_ns.end() ? 0 : it->second);
    out[s.name].push_back(static_cast<double>(self) / s.units);
  }
  return out;
}

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"units\":%g}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.units);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("write failed: " + path);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

}  // namespace perfbench
