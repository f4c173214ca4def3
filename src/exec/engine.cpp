#include "exec/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "common/error.hpp"
#include "trace/trace.hpp"

namespace gmg::exec {

namespace detail {

static_assert(Engine::kMaxChunks <= 64, "one claim-mask bit per chunk");

/// One in-flight parallel_for_chunks call. A thread claims chunk c by
/// setting bit c of `claimed` (run_job_chunks gives the order). The
/// `fn` pointer targets the caller's frame — safe because the caller
/// blocks until done == chunks, and no thread dereferences it without
/// first claiming a chunk.
struct ParallelJob {
  const char* name = nullptr;
  std::int64_t n = 0;
  int chunks = 0;
  int slots = 0;  // min(chunks, workers + 1): the caller's range is never empty
  std::uint64_t all = 0;  // one bit per chunk
  int rank = 0;
  const std::function<void(int, std::int64_t, std::int64_t)>* fn = nullptr;
  std::atomic<std::uint64_t> claimed{0};
  std::atomic<int> done{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // first exception wins; guarded by mu
};

struct EngineState {
  std::mutex mu;
  std::condition_variable work_cv;  // workers: a job or stop
  std::deque<std::shared_ptr<ParallelJob>> jobs;
  bool stop = false;
};

namespace {

/// Take chunk `c` unless another thread has; whether this call did.
bool claim(ParallelJob& job, int c) {
  const std::uint64_t bit = std::uint64_t{1} << c;
  return (job.claimed.fetch_or(bit, std::memory_order_relaxed) & bit) == 0;
}

void run_chunk(ParallelJob& job, int c) {
  try {
    (*job.fn)(c, Engine::chunk_bound(job.n, job.chunks, c),
              Engine::chunk_bound(job.n, job.chunks, c + 1));
  } catch (...) {
    std::lock_guard<std::mutex> lock(job.mu);
    if (!job.error) job.error = std::current_exception();
  }
  if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.chunks) {
    std::lock_guard<std::mutex> lock(job.mu);
    job.cv.notify_all();
  }
}

/// Run slot `slot`'s share of `job`. The submitting thread is slot 0
/// and worker i is slot i + 1; slot p < slots owns the contiguous range
/// [chunks*p/slots, chunks*(p+1)/slots) and claims it in order, so each
/// thread walks one block of bricks per launch instead of taking turns
/// with the others. Then it steals unclaimed chunks from the top down,
/// so a stealer meets a late owner at the end of the owner's range
/// instead of splitting it. Runs with no engine lock held; the
/// per-chunk work happens entirely on this thread. The final
/// done-increment is the completion signal the submitting thread waits
/// on.
void run_job_chunks(ParallelJob& job, int slot) {
  if (slot < job.slots) {
    const int end = job.chunks * (slot + 1) / job.slots;
    for (int c = job.chunks * slot / job.slots; c < end; ++c) {
      if (claim(job, c)) run_chunk(job, c);
    }
  }
  for (;;) {
    const std::uint64_t open =
        job.all & ~job.claimed.load(std::memory_order_relaxed);
    if (open == 0) return;
    const int c = 63 - std::countl_zero(open);
    if (claim(job, c)) run_chunk(job, c);
  }
}

void worker_loop(EngineState& st, int slot) {
  std::unique_lock<std::mutex> lock(st.mu);
  for (;;) {
    st.work_cv.wait(lock, [&] { return st.stop || !st.jobs.empty(); });
    if (st.jobs.empty()) return;  // stop && no work
    std::shared_ptr<ParallelJob> job = st.jobs.front();
    if (job->claimed.load(std::memory_order_relaxed) == job->all) {
      st.jobs.pop_front();  // every chunk claimed; retire and look again
      continue;
    }
    lock.unlock();
    {
      trace::set_rank(job->rank);
      trace::TraceSpan span(job->name ? job->name : "exec.parallel_for",
                            trace::Category::kExec);
      run_job_chunks(*job, slot);
    }
    lock.lock();
  }
}

}  // namespace
}  // namespace detail

Engine::Engine(int workers) {
  GMG_REQUIRE(workers >= 1, "exec::Engine needs at least one worker");
  state_ = std::make_unique<detail::EngineState>();
  // A lone worker on a single-CPU host cannot add parallelism to a
  // blocking parallel_for — the submitter would only trade chunks back
  // and forth with it through the scheduler. Run those chunk plans
  // inline instead (identical results: boundaries don't change).
  solo_ = workers == 1 && std::thread::hardware_concurrency() <= 1;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back(
        [st = state_.get(), slot = i + 1] { detail::worker_loop(*st, slot); });
  }
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->stop = true;
  }
  state_->work_cv.notify_all();
  for (auto& w : workers_) w.join();
}

int Engine::plan_chunks(std::int64_t n, std::int64_t grain) {
  if (n <= 0) return 0;
  const std::int64_t g = std::max<std::int64_t>(1, grain);
  return static_cast<int>(
      std::clamp<std::int64_t>(n / g, 1, kMaxChunks));
}

std::int64_t Engine::chunk_bound(std::int64_t n, int chunks, int c) {
  return n * c / chunks;
}

void Engine::parallel_for_chunks(
    const char* name, std::int64_t n, std::int64_t grain,
    const std::function<void(int, std::int64_t, std::int64_t)>& fn) {
  if (n <= 0) return;
  const int chunks = plan_chunks(n, grain);
  if (chunks == 1 || solo_) {
    for (int c = 0; c < chunks; ++c) {
      fn(c, chunk_bound(n, chunks, c), chunk_bound(n, chunks, c + 1));
    }
    return;
  }
  auto job = std::make_shared<detail::ParallelJob>();
  job->name = name;
  job->n = n;
  job->chunks = chunks;
  job->slots = std::min(chunks, workers() + 1);
  // A shift by 64 is undefined: the full 64-chunk mask is spelled out.
  job->all =
      chunks == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << chunks) - 1;
  job->rank = trace::current_rank();
  job->fn = &fn;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->jobs.push_back(job);
  }
  state_->work_cv.notify_all();
  detail::run_job_chunks(*job, 0);  // the submitter always participates
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == job->chunks;
    });
  }
  {
    // Retire the job if no worker got around to popping it.
    std::lock_guard<std::mutex> lock(state_->mu);
    auto& jobs = state_->jobs;
    jobs.erase(std::remove(jobs.begin(), jobs.end(), job), jobs.end());
  }
  if (job->error) std::rethrow_exception(job->error);
}

int Engine::workers() const { return static_cast<int>(workers_.size()); }

}  // namespace gmg::exec
