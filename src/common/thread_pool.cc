#include "src/common/thread_pool.h"

#include <algorithm>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace btr {

struct ThreadPool::Ticket::Batch {
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = 0;
  std::exception_ptr first_error;
};

struct ThreadPool::Job {
  std::shared_ptr<Ticket::Batch> batch;
  std::shared_ptr<std::function<void(size_t)>> fn;
  size_t index = 0;
};

namespace {

// Set for the lifetime of every pool worker thread (any pool instance):
// nested Dispatch calls run inline instead of deadlocking the pool, and the
// sharded simulator checks it to pick its sequential window path.
thread_local bool tls_on_pool_worker = false;

void PinToCore(size_t core) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  // Best effort: containers with restricted affinity masks may refuse.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)core;
#endif
}

}  // namespace

// Executes one job and retires it against its batch.
void ThreadPool::ExecuteAndRetire(Job& job) {
  std::exception_ptr error;
  try {
    (*job.fn)(job.index);
  } catch (...) {
    error = std::current_exception();
  }
  auto& batch = *job.batch;
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(batch.mu);
    if (error != nullptr && batch.first_error == nullptr) {
      batch.first_error = error;
    }
    last = (--batch.remaining == 0);
  }
  if (last) {
    batch.cv.notify_all();
  }
}

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  thread_count_ = threads;
  if (threads == 1) {
    return;  // inline mode until EnsureWorkers grows the pool
  }
  std::lock_guard<std::mutex> lock(mu_);
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    SpawnWorkerLocked();
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: worker threads may outlive every static destructor.
  static ThreadPool* pool = [] {
    // Workers read pin_workers_ as they start, so it is set before the
    // first spawn (a pool of 1 spawns none).
    const size_t cores = std::max<size_t>(1, std::thread::hardware_concurrency());
    auto* p = new ThreadPool(1);
    p->pin_workers_ = cores > 1;
    if (cores > 1) {
      p->EnsureWorkers(cores);
    }
    return p;
  }();
  return *pool;
}

size_t ThreadPool::worker_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

size_t ThreadPool::busy_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return busy_;
}

bool ThreadPool::OnWorkerThread() { return tls_on_pool_worker; }

void ThreadPool::SpawnWorkerLocked() {
  const size_t index = workers_.size();
  workers_.emplace_back([this, index] { WorkerLoop(index); });
}

void ThreadPool::EnsureWorkers(size_t workers) {
  std::lock_guard<std::mutex> lock(mu_);
  while (workers_.size() < workers) {
    SpawnWorkerLocked();
  }
  thread_count_ = std::max(thread_count_, workers_.size());
}

void ThreadPool::ReserveWorkers(size_t workers) {
  std::lock_guard<std::mutex> lock(mu_);
  while (workers_.size() - busy_ < workers) {
    SpawnWorkerLocked();
  }
  thread_count_ = std::max(thread_count_, workers_.size());
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  tls_on_pool_worker = true;
  if (pin_workers_) {
    const size_t cores = std::max<size_t>(1, std::thread::hardware_concurrency());
    PinToCore(worker_index % cores);
  }
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutdown with drained queue
      }
      job = std::move(queue_.front());
      queue_.pop();
      ++busy_;
    }
    ExecuteAndRetire(job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --busy_;
    }
  }
}

ThreadPool::Ticket ThreadPool::Dispatch(size_t count, std::function<void(size_t)> fn) {
  Ticket ticket;
  ticket.batch_ = std::make_shared<Ticket::Batch>();
  ticket.batch_->remaining = count;
  if (count == 0) {
    return ticket;
  }
  auto shared_fn = std::make_shared<std::function<void(size_t)>>(std::move(fn));
  // Nested use: a batch dispatched from a pool worker runs inline. Every
  // worker may be occupied by a long-running job that is itself about to
  // block in Ticket::Wait (the sweep service runs whole experiment jobs as
  // pool jobs, and each one plans in waves), so enqueueing here can starve
  // forever — execute-on-caller is the deadlock-free degenerate schedule
  // and keeps the batch's sequential semantics.
  bool inline_mode = OnWorkerThread();
  {
    std::lock_guard<std::mutex> lock(mu_);
    inline_mode = inline_mode || workers_.empty();
    if (!inline_mode) {
      for (size_t i = 0; i < count; ++i) {
        queue_.push(Job{ticket.batch_, shared_fn, i});
      }
    }
  }
  if (inline_mode) {
    for (size_t i = 0; i < count; ++i) {
      Job job{ticket.batch_, shared_fn, i};
      ExecuteAndRetire(job);
    }
    return ticket;
  }
  if (count == 1) {
    work_cv_.notify_one();
  } else {
    work_cv_.notify_all();
  }
  return ticket;
}

void ThreadPool::Ticket::Wait() {
  if (batch_ == nullptr) {
    return;
  }
  std::unique_lock<std::mutex> lock(batch_->mu);
  batch_->cv.wait(lock, [this] { return batch_->remaining == 0; });
  if (batch_->first_error != nullptr) {
    std::exception_ptr error = nullptr;
    std::swap(error, batch_->first_error);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::ParallelFor(size_t count, const std::function<void(size_t)>& fn) {
  Dispatch(count, fn).Wait();
}

}  // namespace btr
