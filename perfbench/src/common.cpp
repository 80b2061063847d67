#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) { return Quantile(std::move(samples), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

uint64_t Tracer::Record(const char* name, Clock::time_point start, Clock::time_point end,
                        uint64_t parent, uint64_t request) {
  if (!enabled_) return 0;
  const uint64_t id = NextId();
  RecordWithId(id, name, start, end, parent, request);
  return id;
}

void Tracer::RecordWithId(uint64_t id, const char* name, Clock::time_point start,
                          Clock::time_point end, uint64_t parent, uint64_t request) {
  if (!enabled_) return;
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  };
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({id, name, ns(start), ns(end), parent, request});
}

size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::WriteJson(const std::string& path, const std::string& meta_json) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write trace file " + path);
  const std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(out, "{\"meta\": %s,\n \"spans\": [\n", meta_json.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %llu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %llu, \"request\": %llu}%s\n",
                 static_cast<unsigned long long>(s.id), s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, " ]}\n");
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write trace file " + path);
}

ScratchDir::ScratchDir(const std::string& parent, const std::string& tag) {
  static std::atomic<int> counter{0};
  std::filesystem::create_directories(parent);
  path_ = parent + "/" + tag + "-" + std::to_string(::getpid()) + "-" +
          std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

}  // namespace perfbench
