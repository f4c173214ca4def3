#include "gmg/cycle.hpp"

#include "exec/runtime.hpp"
#include "trace/trace.hpp"

namespace gmg {

exec::Engine& OverlapStream::engine() {
  exec::Engine& eng = exec::default_engine();
  const std::uint64_t gen = exec::default_engine_generation();
  if (gen != generation_) {
    stream_ = eng.create_stream(name_);
    generation_ = gen;
  }
  return eng;
}

void finish_exchange_overlapped(comm::Communicator& comm,
                                comm::BrickExchange& ex, OverlapStream& os,
                                perf::Profiler* prof, int level,
                                const Box& active, const Box& safe,
                                perf::Phase phase,
                                const std::function<void(const Box&)>& kernel) {
  const auto timed = [&](perf::Phase ph, const auto& fn) {
    if (prof != nullptr)
      prof->timed(level, ph, fn);
    else
      fn();
  };
  exec::Event done;
  double interior_seconds = 0.0;
  if (!safe.empty()) {
    // The worker records the phase span itself (it owns the timing);
    // the aggregate is updated from this thread after done.wait(),
    // because Profiler::stats_ is not thread-safe.
    exec::Engine& eng = os.engine();
    eng.submit(os.stream(), "overlap.interior", [&, safe] {
      trace::TraceSpan span(perf::phase_name(phase),
                            perf::phase_category(phase), level);
      kernel(safe);
      interior_seconds = span.close();
    });
    done = eng.record(os.stream());
  }
  timed(perf::Phase::kExchange, [&] { ex.finish(comm); });
  // Shell sweeps run on this thread while the interior task drains on
  // the stream worker: the shell boxes and the safe box are disjoint
  // cell regions writing disjoint storage (DESIGN.md §10), so the only
  // ordering needed is done.wait() before anyone reads the result.
  const std::vector<Box> shell = shell_boxes(active, safe);
  if (!shell.empty()) {
    timed(phase, [&] {
      for (const Box& s : shell) kernel(s);
    });
  }
  {
    trace::TraceSpan wait_span("exec.wait_overlap", trace::Category::kWait);
    done.wait();
  }
  if (prof != nullptr && !safe.empty())
    prof->record(level, phase, interior_seconds);
}

}  // namespace gmg
