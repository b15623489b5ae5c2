#include "benchmark/harness.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <emmintrin.h>
#endif

#include "src/common/hash.h"

namespace btr::bench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

size_t BenchThreads() {
  return std::min<size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
}

double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void Reporter::Metric(const std::string& name, double value, const std::string& unit) {
  std::printf("METRIC %s %.9g %s\n", name.c_str(), value, unit.c_str());
}

void Reporter::Check(bool ok, const std::string& what) {
  std::printf("CHECK %s %s\n", ok ? "ok" : "FAIL", what.c_str());
}

void Reporter::Ops(uint64_t attempted, uint64_t failed) {
  std::printf("OPS %" PRIu64 " %" PRIu64 "\n", attempted, failed);
}

void Reporter::Fingerprint(uint64_t fp) { std::printf("FINGERPRINT %016" PRIx64 "\n", fp); }

void Reporter::Note(const std::string& text) { std::printf("# %s\n", text.c_str()); }

double ReferenceKernelMs() {
  static std::vector<uint64_t> table(1 << 17);  // 1 MiB
  static volatile uint64_t sink = 0;
  uint64_t acc = 0;
  // Untimed pass over every cache line, so the timed walk starts from the
  // same cache state whatever the op before it left there. Flushing (cold
  // from memory) follows the host's memory contention as the ops feel it;
  // a warm table, the fallback, follows only the core's speed.
  for (size_t i = 0; i < table.size(); i += 8) {
#if defined(__x86_64__) || defined(__i386__)
    _mm_clflush(&table[i]);
#else
    acc += table[i];
#endif
  }
#if defined(__x86_64__) || defined(__i386__)
  _mm_mfence();
#endif
  const int64_t t0 = NowNs();
  uint64_t x = 1;
  for (int i = 0; i < 3000000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    acc += table[(x >> 20) & (table.size() - 1)]++;
  }
  sink = sink + acc;
  return static_cast<double>(NowNs() - t0) * 1e-6;
}

void OpLog::Add(double op_ms, bool ok) {
  raw_ms_.Add(op_ms);
  batch_ms_.push_back(op_ms);
  ++attempted_;
  failed_ += ok ? 0 : 1;
}

void OpLog::EndBatch(double wall_s) {
  const double reference = ReferenceKernelMs();
  // The host's speed around the batch: the mean of the reference timed
  // before it (after the previous batch) and right after it.
  const double around = reference_ms_.empty() ? reference : (last_reference_ + reference) / 2;
  reference_ms_.Add(reference);
  last_reference_ = reference;
  const double scale = kReferenceMs / around;
  for (double op_ms : batch_ms_) {
    scaled_ms_.Add(op_ms * scale);
  }
  batch_ms_.clear();
  raw_wall_s_ += wall_s;
  scaled_wall_s_ += wall_s * scale;
}

void OpLog::ReportEndToEnd(Reporter* out, double setup_s, double peak_rss_mb) const {
  const double ops = static_cast<double>(scaled_ms_.count());
  out->Metric("op_ms_p50", scaled_ms_.Percentile(0.5), "ms");
  out->Metric("setup_s", setup_s, "s");
  out->Metric("peak_rss_mb", peak_rss_mb, "MB");

  char line[200];
  std::snprintf(line, sizeof(line),
                "host scale: reference kernel p50 %.3f ms (n=%zu) vs %.1f ms on the "
                "reference host",
                reference_ms_.Percentile(0.5), reference_ms_.count(), kReferenceMs);
  out->Note(line);
  std::snprintf(line, sizeof(line), "ops_per_s %.4f host-scaled, %.4f raw",
                ops / scaled_wall_s_, ops / raw_wall_s_);
  out->Note(line);
  // Raw op quartiles, and the tail worth quoting: the highest percentile
  // with at least ten samples beyond it.
  const Samples& ms = raw_ms_;
  const size_t n = ms.count();
  int used = std::snprintf(line, sizeof(line), "raw op_ms: p25 %.3f p50 %.3f p75 %.3f",
                           ms.Percentile(0.25), ms.Percentile(0.5), ms.Percentile(0.75));
  if (n >= 20) {
    const double q = 1.0 - 10.0 / static_cast<double>(n);
    std::snprintf(line + used, sizeof(line) - used, " p%.1f %.3f (n=%zu)", q * 100.0,
                  ms.Percentile(q), n);
  } else {
    std::snprintf(line + used, sizeof(line) - used, " (n=%zu, too few for a tail)", n);
  }
  out->Note(line);
}

bool CycleFingerprints::Record(size_t index, uint64_t fp) {
  if (index < cycle_) {
    first_.push_back(fp);
    return true;
  }
  return first_[index % cycle_] == fp;
}

uint64_t CycleFingerprints::Combined() const {
  uint64_t combined = 0;
  for (uint64_t fp : first_) {
    combined = HashCombine(combined, fp);
  }
  return combined;
}

Tracer::Span::Span(Tracer* tracer, const char* name, const char* layer) : tracer_(tracer) {
  if (!tracer_->enabled_) {
    return;
  }
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(
      Record{name, layer, NowNs(), 0, tracer_->current_, tracer_->op_, 0});
  tracer_->current_ = index_;
}

Tracer::Span::~Span() {
  if (index_ < 0) {
    return;
  }
  Record& r = tracer_->spans_[index_];
  r.end_ns = NowNs();
  tracer_->current_ = r.parent;
  if (r.parent >= 0) {
    // Children run nested and sequentially, so their durations never overlap.
    tracer_->spans_[r.parent].child_ns += r.end_ns - r.start_ns;
  }
}

std::vector<std::pair<std::string, double>> Tracer::SelfMsByLayer() const {
  std::vector<std::pair<std::string, double>> out;
  for (const Record& r : spans_) {
    const double self_ms = static_cast<double>(r.end_ns - r.start_ns - r.child_ns) * 1e-6;
    auto it = std::find_if(out.begin(), out.end(),
                           [&r](const auto& entry) { return entry.first == r.layer; });
    if (it == out.end()) {
      out.emplace_back(r.layer, self_ms);
    } else {
      it->second += self_ms;
    }
  }
  return out;
}

double Tracer::TotalSelfMs() const {
  double total = 0.0;
  for (const auto& [layer, ms] : SelfMsByLayer()) {
    total += ms;
  }
  return total;
}

double Tracer::SpanCostNs() {
  constexpr int kSpans = 100000;
  Tracer calibration(true);
  calibration.spans_.reserve(kSpans);
  const int64_t t0 = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    Span span(&calibration, "calibrate", "calibrate");
  }
  return static_cast<double>(NowNs() - t0) / kSpans;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%" PRIu64 ",\"parent\":%d}}",
                 i == 0 ? "" : ",", r.name, r.layer,
                 static_cast<double>(r.start_ns - origin) * 1e-3,
                 static_cast<double>(r.end_ns - r.start_ns) * 1e-3, r.op, r.parent);
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace btr::bench
