// Tracing from outside the library: in-memory spans around every facade
// call the workloads make, plus a device decorator (installed through the
// public DbOptions::wrap_device hook) that adds child spans for magnetic
// and historical device I/O. Spans are kept per thread and written out
// once, at the end of each process; the parent of a run reads every
// process's file and derives self times (span minus children) and the
// per-layer means from them.
//
// Tracing is off unless a traced run turns it on; a disabled Span costs
// one relaxed atomic load.
#ifndef MVBENCH_TRACE_H_
#define MVBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "harness.h"
#include "storage/device.h"

namespace mvbench {

enum SpanName : uint16_t {
  kWrite = 0,
  kGetCurrent,
  kGetAsOf,
  kCursorSeek,
  kCursorNext,
  kCursorNextVersion,
  kCheckpoint,
  kOpen,
  kMagneticRead,
  kMagneticWrite,
  kMagneticSync,
  kHistoricalRead,
  kHistoricalWrite,
  kHistoricalSync,
  kNumSpanNames,
};

void EnableTracing(bool on);

/// Scoped span. A span opened with no open span on its thread starts a new
/// request; nested spans share the request id and point at their parent.
class Span {
 public:
  explicit Span(SpanName name, uint64_t bytes = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
  SpanName name_;
  uint64_t bytes_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ = 0;
};

/// Runs `fn` (returning Status) inside a span and adds its latency to `s`.
template <typename F>
Status Timed(SpanName name, Samples* s, F fn) {
  const int64_t t0 = NowNs();
  Status st;
  {
    Span span(name);
    st = fn();
  }
  s->Add(NowNs() - t0);
  return st;
}

/// Writes every span recorded in this process to `path` (binary) and
/// forgets them. Call once all recording threads have been joined.
bool DumpSpans(const std::string& path);

/// Reads every spans-*.bin file under `dir` and adds per-name counts,
/// total and self nanoseconds, bytes, and the checkpoint flush intervals
/// to `report` as raw counts ("span.<name>.count", ".ns", ".self_ns",
/// ".bytes"; "span.checkpoint.count", "span.checkpoint.ns").
bool AggregateSpans(const std::string& dir, Report* report);

/// Device decorator: forwards every virtual (SupportsMappedReads and
/// write_once_sector_size included, so the zero-copy and WORM paths are
/// unchanged) and wraps Read/ReadMapped/Write/Sync in child spans.
std::unique_ptr<tsb::Device> WrapTracing(const std::string& role,
                                         std::unique_ptr<tsb::Device> inner);

}  // namespace mvbench

#endif  // MVBENCH_TRACE_H_
