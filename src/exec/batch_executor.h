// Dataflow-parallel execution of a recorded GateGraph -- the software
// counterpart of MATCHA keeping many concurrent gate bootstrappings in
// flight. run_batch makes every (item group x gate) pair one task and
// dispatches the whole batch in a single pool invocation: a task becomes
// ready the moment its last gate operand completes (a per-task readiness
// refcount seeded from GateGraph::dataflow_info), so item A's deep gates
// overlap item B's shallow ones and a straggling carry chain never holds an
// unrelated item at a barrier. There is no per-wavefront fork-join; workers
// drain work-stealing deques (ThreadPool::run_tasks) until the batch is dry.
//
// Keyswitch batching: a task evaluates one gate for a *group* of batch items
// (up to kKsGroupTarget when the batch is deep enough to keep every worker
// fed). The gate lowering is one rotate-and-extract flush for the group
// (tfhe/bootstrap.h) followed by ONE key_switch_batch flush, so both keys
// -- the largest read-only operands -- stream from memory once per group
// instead of once per item (tfhe/keyswitch.h). Group size trades key-traffic
// amortization against task-level parallelism, so it shrinks to
// items / num_threads when the batch is narrow; correctness never depends on
// it (exact mod-2^32 arithmetic makes grouped and per-item keyswitch
// bit-identical).
//
// Determinism: every worker slot owns a private Engine instance (engines
// carry mutable scratch buffers and counters -- sharing one across threads
// would race) plus its own BootstrapWorkspace, while the spectral
// bootstrapping key and key-switching key are shared read-only. This
// aliasing contract holds for the planar SIMD engine too: its kernels only
// ever read the shared key's SpectralP planes, and every buffer they write
// (digit/spectral arenas, accumulators, FFT scratch) lives in the worker's
// private engine or workspace. A gate's
// output depends only on its input ciphertexts and bootstrapping is
// deterministic, so results are bit-identical to sequential execution
// regardless of thread count, steal pattern, or batch grouping.
//
// Counters: each worker engine accumulates its EngineCounters privately
// during a run; the executor merges them into one aggregate on batch
// completion (see DESIGN.md "Batched execution subsystem").
//
// Fault isolation (DESIGN.md "Failure model and fault-injection contract"):
// a fault in one item's cone -- an injected bit flip, an allocation failure,
// a worker-task exception -- must never take down the batch. The executor
// tracks per-(item, node) validity alongside the refcount schedule: a failed
// task marks its items' outputs invalid and STILL decrements its consumers
// (so the task space drains normally), and downstream tasks simply skip
// items whose operands are invalid. After the pool run, a bounded retry
// recomputes only the invalid nodes of each faulted item on the caller's
// slot; items that stay faulted report a structured per-item Status in their
// BatchResult while every other item completes bit-identically to a
// fault-free run. A configurable deadline bounds the whole batch
// (ThreadPool's cooperative watchdog); a tripped deadline reports
// kDeadlineExceeded on the incomplete items instead of hanging.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/status.h"
#include "exec/gate_graph.h"
#include "exec/thread_pool.h"
#include "fft/engine_counters.h"
#include "tfhe/functional.h"
#include "tfhe/gate_ops.h"

namespace matcha::exec {

/// All ciphertexts one execution produced, indexed by wire id, plus the
/// item's fault outcome: `status` is kOk when every node completed (possibly
/// after retry); otherwise it carries the first failure and `value_ok` marks
/// which node values are trustworthy.
struct BatchResult {
  std::vector<LweSample> values;
  /// Per-node validity: 1 iff values[i] was computed (or recomputed) without
  /// a fault. Sized by the executor; empty in hand-built results.
  std::vector<uint8_t> value_ok;
  /// kOk, or the first structured failure this item hit and retry could not
  /// repair.
  Status status;

  /// `w` must be a wire of the executed graph -- in particular, reading an
  /// unmarked output through CompiledGraph::remap yields an invalid wire
  /// (its producer was dead-gate-eliminated). Throws instead of asserting:
  /// this is a cold per-output path and the misuse must surface in release
  /// builds too. Reading a value a fault invalidated throws the item's
  /// Status rather than handing out a corrupt ciphertext.
  const LweSample& at(Wire w) const {
    if (!w.valid() || static_cast<size_t>(w.id) >= values.size()) {
      throw std::out_of_range(
          "BatchResult::at: wire absent from this result (dead-eliminated "
          "or from a different graph)");
    }
    if (!value_ok.empty() && !value_ok[static_cast<size_t>(w.id)]) {
      throw StatusError(status.ok() ? internal_status(
                                          "BatchResult::at: value invalidated "
                                          "by a fault")
                                    : status);
    }
    return values[static_cast<size_t>(w.id)];
  }
};

struct BatchStats {
  int items = 0;          ///< batch items executed in the last run
  int64_t gates = 0;      ///< gate evaluations performed (inputs excluded)
  int64_t bootstraps = 0; ///< gate bootstrappings performed
  int64_t sample_extracts = 0; ///< accumulator readouts (>= bootstraps when
                               ///< multi-output LUTs share rotations)
  int max_extraction_fanout = 0; ///< most outputs any one rotation feeds
  int levels = 0;         ///< dependence depth of the graph (wavefront count)
  double wall_ms = 0;     ///< wall clock of the last run
  // Dataflow scheduler health. The barrier-free contract is pool_dispatches
  // == 1 however deep the graph (the wavefront executor paid one fork-join
  // per level); sched_efficiency is worker time spent inside gate kernels
  // divided by workers x makespan -- 1.0 means dispatch kept every
  // participating worker busy end to end, and the deficit is time lost to
  // readiness gaps (a too-narrow frontier) or steal traffic.
  int pool_dispatches = 0; ///< pool invocations in the last run
  int workers = 0;         ///< worker slots that participated
  int64_t steals = 0;      ///< tasks executed off another worker's deque
  double sched_efficiency = 0; ///< busy worker-time / (workers * wall)
  // Fault accounting for the last run.
  int faulted_items = 0;  ///< items that hit at least one fault
  int retried_items = 0;  ///< faulted items the bounded retry repaired
  int retry_runs = 0;     ///< repair sweeps performed after the pool run
  bool timed_out = false; ///< the batch deadline tripped (watchdog)
};

template <class Engine>
class BatchExecutor {
 public:
  using EngineFactory = std::function<std::unique_ptr<Engine>()>;

  /// `make_engine` is invoked once per worker thread. `bk`/`ks` are shared
  /// read-only across workers and must outlive the executor.
  BatchExecutor(const EngineFactory& make_engine,
                const DeviceBootstrapKey<Engine>& bk, const KeySwitchKey& ks,
                Torus32 mu, int num_threads)
      : bk_(bk), ks_(ks), mu_(mu), pool_(num_threads) {
    // Construct each worker's engine and workspace ON the thread that will
    // run it (ThreadPool slots are fixed per thread): first-touch places the
    // scratch arenas in that thread's local memory, which is what makes the
    // pages local on NUMA/multi-CCX hosts (DESIGN.md thread-scaling notes).
    // Engine factories are not required to be thread-safe, so the factory
    // call itself is serialized; the workspace allocation -- the part whose
    // placement matters -- happens outside the lock.
    workers_.resize(static_cast<size_t>(pool_.num_threads()));
    std::mutex factory_mu;
    pool_.run(
        [&](int slot) {
          std::unique_ptr<Engine> eng;
          {
            std::lock_guard<std::mutex> lk(factory_mu);
            eng = make_engine();
          }
          workers_[static_cast<size_t>(slot)] =
              std::make_unique<Worker>(std::move(eng), bk.gadget);
        },
        pool_.num_threads());
  }

  int num_threads() const { return pool_.num_threads(); }

  /// Execute the graph on one item (one ciphertext per GateGraph input, in
  /// registration order).
  BatchResult run(const GateGraph& g, std::vector<LweSample> inputs) {
    std::vector<std::vector<LweSample>> batch;
    batch.push_back(std::move(inputs));
    return std::move(run_batch(g, std::move(batch)).front());
  }

  /// Execute the graph once per batch item. The whole (item x gate) task
  /// space is dispatched once; tasks run as their operands resolve, in
  /// whatever order the steal pattern produces -- results are bit-identical
  /// for any thread count and any batch grouping.
  /// An empty batch is a well-defined no-op: no worker is woken, no counter
  /// is touched, and an empty result vector comes back.
  std::vector<BatchResult> run_batch(const GateGraph& g,
                                     std::vector<std::vector<LweSample>> batch) {
    if (batch.empty()) {
      stats_ = {};
      return {};
    }
    for (const auto& inputs : batch) {
      if (inputs.size() != static_cast<size_t>(g.num_inputs())) {
        throw std::invalid_argument(
            "BatchExecutor::run_batch: expected " +
            std::to_string(g.num_inputs()) + " inputs per item, got " +
            std::to_string(inputs.size()));
      }
      // Gate combos add inputs coefficient by coefficient over n_lwe.
      for (const LweSample& c : inputs) {
        if (c.n() != bk_.n_lwe) {
          throw std::invalid_argument(
              "BatchExecutor::run_batch: expected inputs of dimension " +
              std::to_string(bk_.n_lwe) + ", got " + std::to_string(c.n()));
        }
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    prepare_lut_testvectors(g);
    // Discard any counts a previous run left unmerged (e.g. after a worker
    // threw), so the post-run merge reflects exactly this run.
    for (auto& w : workers_) {
      w->engine->counters().reset();
      w->busy_ns = 0;
    }
    const int items = static_cast<int>(batch.size());
    const int num_nodes = g.num_nodes();
    std::vector<BatchResult> results(batch.size());
    for (int b = 0; b < items; ++b) {
      results[b].values.resize(num_nodes);
      results[b].value_ok.assign(static_cast<size_t>(num_nodes), 0);
      for (int i = 0; i < g.num_inputs(); ++i) {
        results[b].values[g.inputs()[i]] = std::move(batch[b][i]);
        results[b].value_ok[static_cast<size_t>(g.inputs()[i])] = 1;
      }
      for (int i = 0; i < num_nodes; ++i) {
        const GateNode& n = g.nodes()[i];
        if (n.is_const) {
          results[b].values[i] = constant_bit(bk_.n_lwe, mu_, n.const_value);
          results[b].value_ok[static_cast<size_t>(i)] = 1;
        }
      }
    }

    // Per-item fault ledger. Tasks of the same item can fault concurrently
    // on different workers; the mutex keeps "first failure wins" exact.
    // Validity flags themselves need no locking: each (item, node) value has
    // exactly one writer (the task that owns the node for that group), and
    // readers only reach it through the acquire side of the readiness
    // refcount that writer released.
    std::mutex fault_mu;
    std::vector<Status> item_status(static_cast<size_t>(items));
    const auto fail_item = [&](int b, Status st) {
      std::lock_guard<std::mutex> lk(fault_mu);
      auto& slot = item_status[static_cast<size_t>(b)];
      if (slot.ok()) slot = std::move(st);
    };

    // Task space: (item group x gate). All items of a group finish a gate in
    // the same task, so their consumers' operands complete together and one
    // readiness refcount per (group, gate) suffices -- seeded from the plain
    // gate indegree exactly as in the ungrouped executor. Completion
    // decrements each consumer's count with acquire-release ordering, so the
    // worker that drops a count to zero has observed every operand
    // ciphertext the earlier decrementers wrote. Rebuilt per run on purpose:
    // it costs microseconds against the batch's millisecond-scale
    // bootstraps, and caching it on the graph's address would silently go
    // stale if the caller appends gates between runs.
    const int group_size = ks_group_for(items);
    const int num_groups = (items + group_size - 1) / group_size;
    const DataflowInfo flow = g.dataflow_info();
    std::vector<std::atomic<int>> pending(
        static_cast<size_t>(num_groups) * static_cast<size_t>(num_nodes));
    std::vector<uint64_t> seeds;
    for (int grp = 0; grp < num_groups; ++grp) {
      const uint64_t base = static_cast<uint64_t>(grp) * num_nodes;
      for (int i = 0; i < num_nodes; ++i) {
        if (!g.nodes()[i].is_gate()) continue;
        pending[base + i].store(flow.gate_indegree[i],
                                std::memory_order_relaxed);
        if (flow.gate_indegree[i] == 0) seeds.push_back(base + i);
      }
    }

    const int64_t total_tasks =
        static_cast<int64_t>(g.num_gates()) * num_groups;
    ThreadPool::TaskRunStats run_stats;
    run_stats.workers = 0; // stays 0 when there is nothing to dispatch
    if (total_tasks > 0) {
      const auto task = [&](ThreadPool::TaskSink& sink, uint64_t t) {
        const int grp = static_cast<int>(t / static_cast<uint64_t>(num_nodes));
        const int gate = static_cast<int>(t % static_cast<uint64_t>(num_nodes));
        const int b0 = grp * group_size;
        const int b1 = std::min(items, b0 + group_size);
        Worker& w = *workers_[static_cast<size_t>(sink.slot())];
        const auto g0 = std::chrono::steady_clock::now();
        // A fault anywhere in the group must NOT escape to the pool: the
        // group's items are marked failed (their outputs stay invalid) and
        // the consumer decrements below still run, so the rest of the batch
        // drains as if nothing happened -- that is the isolation contract.
        try {
          if (fault::should_fire(fault::kSiteTaskException)) {
            throw fault::FaultInjected(
                fault::kSiteTaskException,
                unavailable_status("injected worker-task exception"));
          }
          eval_gate_group(w, g, gate, b0, b1, results, fail_item);
        } catch (...) {
          const Status st = status_from_exception();
          for (int b = b0; b < b1; ++b) fail_item(b, st);
        }
        w.busy_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - g0)
                         .count();
        const uint64_t base = static_cast<uint64_t>(grp) * num_nodes;
        for (const int c : flow.consumers[static_cast<size_t>(gate)]) {
          if (pending[base + c].fetch_sub(1, std::memory_order_acq_rel) == 1) {
            sink.push(base + c);
          }
        }
      };
      const auto deadline = deadline_.count() > 0
                                ? t0 + deadline_
                                : ThreadPool::kNoDeadline;
      run_stats = pool_.run_tasks(seeds, total_tasks, task, deadline);
    }

    // Merge per-worker counters now that all workers are quiescent. The
    // retry pass below runs AFTER the merge on purpose: repair work is not
    // part of the batch's steady-state cost, and its counter deltas are
    // discarded by the next run's per-worker reset.
    int64_t busy_ns = 0;
    for (auto& w : workers_) {
      merged_ += w->engine->counters();
      w->engine->counters().reset();
      busy_ns += w->busy_ns;
    }

    // A tripped deadline leaves tasks unexecuted with no fault recorded;
    // every incomplete item gets a deadline Status and no retry (more work
    // is exactly what the deadline forbade).
    stats_.timed_out = run_stats.timed_out;
    for (int b = 0; b < items; ++b) {
      if (!item_status[static_cast<size_t>(b)].ok()) continue;
      if (!item_complete(g, results[static_cast<size_t>(b)])) {
        item_status[static_cast<size_t>(b)] =
            run_stats.timed_out
                ? deadline_exceeded_status(
                      "batch deadline tripped before this item completed")
                : internal_status("batch drained with this item incomplete");
      }
    }

    int faulted = 0;
    for (const auto& st : item_status) faulted += st.ok() ? 0 : 1;
    stats_.faulted_items = faulted;
    stats_.retry_runs = 0;
    if (faulted > 0 && !run_stats.timed_out && max_retries_ > 0) {
      retry_failed_items(g, results, item_status, fail_item);
    }
    int still_failed = 0;
    for (int b = 0; b < items; ++b) {
      results[static_cast<size_t>(b)].status =
          item_status[static_cast<size_t>(b)];
      still_failed += item_status[static_cast<size_t>(b)].ok() ? 0 : 1;
    }
    stats_.retried_items = faulted - still_failed;

    stats_.items = items;
    stats_.gates = static_cast<int64_t>(g.num_gates()) * items;
    stats_.bootstraps = g.bootstrap_count() * items;
    stats_.sample_extracts = g.extraction_count() * items;
    stats_.max_extraction_fanout = 0;
    for (size_t i = 0; i < g.nodes().size(); ++i) {
      const GateNode& n = g.nodes()[i];
      if (!n.is_gate()) continue;
      if (n.kind == GateKind::kLut) {
        int fanout = 0;
        for (const int ow : lut_out_wires_[i]) fanout += ow >= 0 ? 1 : 0;
        stats_.max_extraction_fanout =
            std::max(stats_.max_extraction_fanout, fanout);
      } else if (bootstrap_cost(n.kind) > 0) {
        stats_.max_extraction_fanout = std::max(stats_.max_extraction_fanout, 1);
      }
    }
    stats_.levels = static_cast<int>(g.wavefronts().size());
    stats_.pool_dispatches = total_tasks > 0 ? 1 : 0;
    stats_.workers = run_stats.workers;
    stats_.steals = run_stats.steals;
    stats_.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    stats_.sched_efficiency =
        stats_.wall_ms > 0 && run_stats.workers > 0
            ? (busy_ns * 1e-6) / (stats_.wall_ms * run_stats.workers)
            : 0;
    return results;
  }

  /// Aggregate engine counters across workers and runs, merged race-free on
  /// batch completion.
  const EngineCounters& counters() const { return merged_; }
  void reset_counters() { merged_.reset(); }
  const BatchStats& last_stats() const { return stats_; }

  /// Watchdog budget for one run_batch call (0 = no deadline). A tripped
  /// deadline cancels outstanding tasks cooperatively; incomplete items
  /// report kDeadlineExceeded instead of the batch hanging.
  void set_deadline(std::chrono::milliseconds d) { deadline_ = d; }
  /// Repair sweeps allowed after a faulted pool run (0 disables retry;
  /// each sweep recomputes only the invalid nodes of still-failed items).
  void set_max_retries(int n) { max_retries_ = std::max(0, n); }

 private:
  struct Worker {
    std::unique_ptr<Engine> engine;
    BootstrapWorkspace<Engine> ws;
    int64_t busy_ns = 0; ///< time inside gate kernels during the last run
    // Bootstrap-batching scratch: the group's linear-combination inputs and
    // the pointer tables one group-major rotate-and-extract flush consumes
    // (combo sized 2x for MUX's two branch bootstraps), plus the
    // pre-keyswitch N-LWE staging and the digit workspace of the batched
    // keyswitch flush. All grow-only, reused across tasks.
    std::vector<LweSample> combo;
    std::vector<const LweSample*> bs_in;
    std::vector<LweSample*> bs_out;
    std::vector<LweSample> stage;
    std::vector<const LweSample*> ks_in;
    std::vector<LweSample*> ks_out;
    KeySwitchWorkspace ks_ws;
    /// Live items of the current task (operands valid; see eval_gate_group).
    std::vector<int> live;

    Worker(std::unique_ptr<Engine> eng, const GadgetParams& gadget)
        : engine(std::move(eng)), ws(*engine, gadget) {}
  };

  /// Amortization wants large groups (the keyswitch key streams once per
  /// group); the dataflow scheduler wants enough tasks to feed every worker.
  /// Group up to kKsGroupTarget items, but never so coarsely that a worker
  /// sees fewer than one group of the batch.
  static constexpr int kKsGroupTarget = 8;
  int ks_group_for(int items) const {
    return std::max(1, std::min(kKsGroupTarget, items / pool_.num_threads()));
  }

  /// True iff every gate node of `r` holds a valid value.
  static bool item_complete(const GateGraph& g, const BatchResult& r) {
    for (size_t i = 0; i < r.value_ok.size(); ++i) {
      if (g.nodes()[i].is_gate() && !r.value_ok[i]) return false;
    }
    return true;
  }

  /// Injected-bit-flip site of the keyswitch tail. The model is a
  /// physical upset the runtime's integrity check traps: the victim's fresh
  /// ciphertext is corrupted AND detected, so the value is invalidated and
  /// the item reports kDataLoss (retry recomputes it) -- never a wrong
  /// plaintext presented as success.
  template <class FailFn>
  void maybe_flip_keyswitch_output(Worker& w, int wire,
                                   std::vector<BatchResult>& results,
                                   const FailFn& fail_item) {
    if (w.live.empty() ||
        !fault::should_fire(fault::kSiteKeyswitchBitflip)) {
      return;
    }
    const int victim = w.live.front();
    auto& r = results[static_cast<size_t>(victim)];
    auto& c = r.values[static_cast<size_t>(wire)];
    if (!c.a.empty()) c.a[0] ^= 1u << 30;
    r.value_ok[static_cast<size_t>(wire)] = 0;
    fail_item(victim,
              data_loss_status("post-keyswitch ciphertext failed its "
                               "integrity check (injected bit flip)"));
  }

  /// Bounded repair: recompute only the invalid nodes of each failed item,
  /// on the caller's slot (slot 0 -- the caller IS pool slot 0, so engine
  /// and workspace affinity are preserved). Node order is topological, so a
  /// single in-order sweep per item rebuilds its cone; a fresh fault during
  /// a sweep stops that item (partial progress survives in value_ok) and
  /// the next sweep continues from there, up to max_retries_ sweeps.
  template <class FailFn>
  void retry_failed_items(const GateGraph& g, std::vector<BatchResult>& results,
                          std::vector<Status>& item_status,
                          const FailFn& fail_item) {
    Worker& w0 = *workers_.front();
    for (int pass = 0; pass < max_retries_; ++pass) {
      ++stats_.retry_runs;
      bool any_failed = false;
      for (int b = 0; b < static_cast<int>(item_status.size()); ++b) {
        if (item_status[static_cast<size_t>(b)].ok()) continue;
        item_status[static_cast<size_t>(b)] = Status(); // this pass's verdict
        auto& r = results[static_cast<size_t>(b)];
        for (int i = 0; i < g.num_nodes(); ++i) {
          const GateNode& n = g.nodes()[static_cast<size_t>(i)];
          if (!n.is_gate() || r.value_ok[static_cast<size_t>(i)]) continue;
          // An invalid kLutOut means its parent LUT is stuck (the parent's
          // recompute writes every live output); nothing below it can run.
          if (n.kind == GateKind::kLutOut) break;
          bool operands_ok = true;
          for (int j = 0; j < n.fan_in(); ++j) {
            operands_ok =
                operands_ok && r.value_ok[static_cast<size_t>(n.in[j])] != 0;
          }
          if (!operands_ok) break;
          try {
            eval_gate_group(w0, g, i, b, b + 1, results, fail_item);
          } catch (...) {
            fail_item(b, status_from_exception());
          }
          if (!r.value_ok[static_cast<size_t>(i)]) break; // fresh fault
        }
        if (!item_complete(g, r)) {
          if (item_status[static_cast<size_t>(b)].ok()) {
            item_status[static_cast<size_t>(b)] = unavailable_status(
                "item incomplete after a repair sweep");
          }
          any_failed = true;
        }
      }
      if (!any_failed) return;
    }
  }

  /// Evaluate gate `id` for the *live* batch items of [b0, b1) -- items
  /// whose operands are all valid; items a fault already sidelined are
  /// skipped (their failure was recorded when the operand's producer
  /// faulted). Every bootstrapping kind lowers in the same four steps:
  /// (1) stage the kind's pre-bootstrap combos (two per item for MUX),
  /// (2) ONE group-major rotate_extract_batch over them with K live outputs
  /// (K = 1 except for multi-output LUTs) -- the spectral bootstrapping key
  /// streams from DRAM once per group of items instead of once per item,
  /// (3) MUX's bootstrap-free combine, (4) ONE batched keyswitch flush over
  /// the (item, output) pairs into the items' result slots. Per-item math is
  /// unchanged, so the result is bit-identical to a batch of one -- whatever
  /// subset of the group is live.
  template <class FailFn>
  void eval_gate_group(Worker& w, const GateGraph& g, int id, int b0, int b1,
                       std::vector<BatchResult>& results,
                       const FailFn& fail_item) {
    const GateNode& n = g.nodes()[static_cast<size_t>(id)];
    if (n.kind == GateKind::kLutOut) {
      // The parent kLut task already extracted and key-switched this output
      // into our result slot (it runs first: this node's readiness refcount
      // counts the parent as an operand). Nothing to compute.
      return;
    }
    w.live.clear();
    for (int b = b0; b < b1; ++b) {
      const auto& ok = results[static_cast<size_t>(b)].value_ok;
      bool operands_ok = true;
      for (int j = 0; j < n.fan_in(); ++j) {
        operands_ok = operands_ok && ok[static_cast<size_t>(n.in[j])] != 0;
      }
      if (operands_ok) w.live.push_back(b);
    }
    const int count = static_cast<int>(w.live.size());
    if (count == 0) return;
    if (n.kind == GateKind::kNot) {
      for (int k = 0; k < count; ++k) {
        auto& res = results[static_cast<size_t>(w.live[k])];
        LweSample r = res.values[n.in[0]];
        r.negate();
        res.values[static_cast<size_t>(id)] = std::move(r);
        res.value_ok[static_cast<size_t>(id)] = 1;
      }
      return;
    }
    if (n.kind == GateKind::kFreeOr) {
      // Disjoint OR of two ciphertexts: a plain addition plus the trivial
      // +mu offset (both-false sums to -mu, exactly-one-true to +mu; the
      // compiler guarantees both-true is unreachable). No bootstrap.
      for (int k = 0; k < count; ++k) {
        auto& res = results[static_cast<size_t>(w.live[k])];
        LweSample r = res.values[n.in[0]];
        r += res.values[n.in[1]];
        r.b += mu_;
        res.values[static_cast<size_t>(id)] = std::move(r);
        res.value_ok[static_cast<size_t>(id)] = 1;
      }
      return;
    }
    if (fault::should_fire(fault::kSiteArenaAllocFail)) {
      throw fault::FaultInjected(
          fault::kSiteArenaAllocFail,
          resource_exhausted_status(
              "worker staging arena allocation failed (injected)"));
    }

    // (1) Stage the combos. MUX's two branch bootstraps ride one flush:
    // slots [0, count) hold AND(sel, c1), slots [count, 2*count)
    // AND(NOT sel, c0). A LUT stages one weighted combination per item,
    // however many Boolean gates its cone replaced (tfhe/lut.h).
    const int rotations = n.kind == GateKind::kMux ? 2 * count : count;
    if (w.combo.size() < static_cast<size_t>(rotations)) {
      w.combo.resize(static_cast<size_t>(rotations));
    }
    w.bs_in.resize(static_cast<size_t>(rotations));
    for (int k = 0; k < count; ++k) {
      const auto& v = results[static_cast<size_t>(w.live[k])].values;
      LweSample& combo = w.combo[static_cast<size_t>(k)];
      switch (n.kind) {
        case GateKind::kMux:
          mux_branch_inputs(v[n.in[0]], v[n.in[1]], v[n.in[2]], mu_,
                            bk_.n_lwe, combo,
                            w.combo[static_cast<size_t>(count + k)]);
          break;
        case GateKind::kLut: {
          std::array<const LweSample*, 4> ins{};
          for (int j = 0; j < n.fan_in(); ++j) {
            ins[static_cast<size_t>(j)] = &v[n.in[j]];
          }
          combo = lut_cone_input(
              n.lut,
              std::span<const LweSample* const>(
                  ins.data(), static_cast<size_t>(n.fan_in())),
              bk_.n_lwe);
          break;
        }
        default:
          combo = binary_gate_input(n.kind, v[n.in[0]], v[n.in[1]], mu_,
                                    bk_.n_lwe);
      }
    }
    for (int k = 0; k < rotations; ++k) {
      w.bs_in[static_cast<size_t>(k)] = &w.combo[static_cast<size_t>(k)];
    }

    // Live outputs: extraction offset and destination wire. A gate has one,
    // at offset 0, under the cached constant gate test vector. A LUT keeps
    // its primary (this wire) plus every kLutOut child the compiled graph
    // kept, output j reading slot_shift * (ring N / slots) -- one
    // test-vector band per slot; dead outputs cost nothing.
    std::array<int, kLutMaxOutputs> offsets{};
    std::array<int, kLutMaxOutputs> wires{};
    int n_out = 1;
    wires[0] = id;
    const TorusPolynomial* testv = &w.ws.testv;
    if (n.kind == GateKind::kLut) {
      testv = node_testv_[static_cast<size_t>(id)];
      const auto& out_wires = lut_out_wires_[static_cast<size_t>(id)];
      const int band = w.engine->ring_n() / n.lut.slots();
      n_out = 0;
      for (int j = 0; j < n.lut.n_out; ++j) {
        if (out_wires[static_cast<size_t>(j)] < 0) continue;
        offsets[static_cast<size_t>(n_out)] = n.lut.output(j).slot_shift * band;
        wires[static_cast<size_t>(n_out)] = out_wires[static_cast<size_t>(j)];
        ++n_out;
      }
    } else {
      set_gate_testv(w.ws, mu_, bk_.gadget);
    }
    const size_t nstage =
        static_cast<size_t>(rotations) * static_cast<size_t>(n_out);
    if (w.stage.size() < nstage) w.stage.resize(nstage);
    w.bs_out.resize(nstage);
    for (size_t s = 0; s < nstage; ++s) w.bs_out[s] = &w.stage[s];

    // The bootstrapping key is shared read-only; a corrupted row cannot be
    // written into it. The modeled failure is a *detected* corruption of the
    // streamed row (ECC/checksum trap in hardware terms): the whole flush is
    // abandoned before rotation, the group's items retry.
    if (fault::should_fire(fault::kSiteBskRowCorrupt)) {
      throw fault::FaultInjected(
          fault::kSiteBskRowCorrupt,
          data_loss_status("bootstrap-key row failed its stream integrity "
                           "check (injected corruption)"));
    }
    // (2) One rotate-and-extract call for the whole group.
    rotate_extract_batch(*w.engine, bk_, *testv, w.bs_in.data(),
                         w.bs_out.data(), offsets.data(), n_out, rotations,
                         w.ws);
    w.engine->counters().sample_extracts += static_cast<int64_t>(nstage);

    // (3) MUX = u1 + u0 + (0, mu), still before the key switch.
    if (n.kind == GateKind::kMux) {
      for (int k = 0; k < count; ++k) {
        mux_combine(w.stage[static_cast<size_t>(k)],
                    w.stage[static_cast<size_t>(count + k)], mu_);
      }
    }

    // (4) Deferred flush: one streaming pass over the keyswitch key serves
    // every (item, output) pair of the group (bit-identical to per-item
    // key_switch -- exact mod-2^32). Output j of item k was staged at
    // j * rotations + k.
    const size_t nks = static_cast<size_t>(count) * static_cast<size_t>(n_out);
    w.ks_in.resize(nks);
    w.ks_out.resize(nks);
    for (int j = 0; j < n_out; ++j) {
      for (int k = 0; k < count; ++k) {
        const size_t s = static_cast<size_t>(j * count + k);
        w.ks_in[s] = &w.stage[static_cast<size_t>(j * rotations + k)];
        w.ks_out[s] = &results[static_cast<size_t>(w.live[k])]
                           .values[static_cast<size_t>(
                               wires[static_cast<size_t>(j)])];
      }
    }
    key_switch_batch(ks_, w.ks_in.data(), w.ks_out.data(),
                     static_cast<int>(nks), w.ks_ws);
    for (int j = 0; j < n_out; ++j) {
      for (int k = 0; k < count; ++k) {
        results[static_cast<size_t>(w.live[k])]
            .value_ok[static_cast<size_t>(wires[static_cast<size_t>(j)])] = 1;
      }
    }
    maybe_flip_keyswitch_output(w, wires[0], results, fail_item);
  }

  /// Resolve (building on demand) the LUT test vectors the graph needs, plus
  /// the per-node pointers the worker hot loop reads; workers read both
  /// concurrently but never mutate them. The vector cache persists across
  /// run_batch calls -- test vectors depend only on the slot values and the
  /// ring size, so repeated runs (the batch-server steady state) skip the
  /// polynomial builds entirely; it is invalidated only if the ring size
  /// ever changes.
  void prepare_lut_testvectors(const GateGraph& g) {
    const int ring_n = workers_.front()->engine->ring_n();
    if (ring_n != lut_testv_ring_n_) {
      lut_testv_.clear();
      lut_testv_ring_n_ = ring_n;
    }
    node_testv_.assign(g.nodes().size(), nullptr);
    lut_out_wires_.assign(g.nodes().size(),
                          std::array<int, kLutMaxOutputs>{-1, -1, -1, -1});
    for (size_t i = 0; i < g.nodes().size(); ++i) {
      const GateNode& n = g.nodes()[i];
      if (!n.is_gate()) continue;
      if (n.kind == GateKind::kLutOut) {
        // Index this extraction on its parent so the parent's single task
        // can key-switch every live output in one flush.
        lut_out_wires_[static_cast<size_t>(n.in[0])][static_cast<size_t>(
            n.aux)] = static_cast<int>(i);
        continue;
      }
      if (n.kind != GateKind::kLut) continue;
      lut_out_wires_[i][0] = static_cast<int>(i); // primary always live
      // The LUT slot encodings are anchored on the standard gate amplitude
      // (in_amp_log = 3 means mu); a nonstandard mu would silently misalign
      // every slot.
      if (mu_ != torus_fraction(1, 8)) {
        throw std::invalid_argument(
            "BatchExecutor: LUT nodes require the standard gate amplitude "
            "mu = 1/8");
      }
      // The slot-value vector is the rotation's full encoding -- grid,
      // tables, shifts, and per-output amplitudes all round-trip through it
      // -- so it is the complete cache key (two specs with equal slot values
      // rotate identically).
      std::vector<Torus32> slots = lut_slot_values(n.lut);
      auto it = lut_testv_.find(slots);
      if (it == lut_testv_.end()) {
        TorusPolynomial tv = make_lut_testvector(ring_n, slots);
        it = lut_testv_.emplace(std::move(slots), std::move(tv)).first;
      }
      node_testv_[i] = &it->second;
    }
  }

  const DeviceBootstrapKey<Engine>& bk_;
  const KeySwitchKey& ks_;
  Torus32 mu_;
  std::chrono::milliseconds deadline_{0};
  int max_retries_ = 4;
  ThreadPool pool_;
  std::vector<std::unique_ptr<Worker>> workers_;
  EngineCounters merged_;
  BatchStats stats_;
  /// Cross-run cache of LUT test vectors, keyed by their slot values, plus a
  /// per-run node-id -> test-vector pointer index for the worker hot loop
  /// (both read-only while workers are in flight; std::map nodes are stable,
  /// so cached pointers survive later insertions).
  std::map<std::vector<Torus32>, TorusPolynomial> lut_testv_;
  int lut_testv_ring_n_ = -1;
  std::vector<const TorusPolynomial*> node_testv_;
  /// Per kLut node: the executed graph's wire carrying each output index
  /// (-1 when that extraction was dead-eliminated). Rebuilt per run.
  std::vector<std::array<int, kLutMaxOutputs>> lut_out_wires_;
};

} // namespace matcha::exec
