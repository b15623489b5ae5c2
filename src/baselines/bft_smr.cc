#include "src/baselines/bft_smr.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

#include "src/core/golden.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"

namespace btr {
namespace {

enum class BftMsgType : int {
  kInput = 0,
  kPrePrepare,
  kPrepare,
  kCommit,
  kResult,
  kViewChange,
  kWake,
};

struct BftMsg : Payload {
  BftMsgType type = BftMsgType::kInput;
  uint64_t period = 0;
  uint64_t view = 0;
  uint64_t digest = 0;  // combined digest of all sink outputs
  std::vector<std::pair<uint32_t, uint64_t>> sink_digests;  // (sink task, digest)
  NodeId from;
  TaskId source;  // kInput: which source task
};

uint32_t MsgBytes(const BftMsg& msg) {
  switch (msg.type) {
    case BftMsgType::kInput:
      return 64;
    case BftMsgType::kPrePrepare:
    case BftMsgType::kResult:
      return 64 + static_cast<uint32_t>(msg.sink_digests.size()) * 12;
    case BftMsgType::kPrepare:
    case BftMsgType::kCommit:
    case BftMsgType::kViewChange:
    case BftMsgType::kWake:
      return 48;
  }
  return 48;
}

uint64_t CombineSinkDigests(const std::vector<std::pair<uint32_t, uint64_t>>& digests) {
  uint64_t acc = 0x9e3779b97f4a7c15ULL;
  for (const auto& [task, digest] : digests) {
    acc = HashCombine(acc, HashCombine(task, digest));
  }
  return acc;
}

constexpr uint64_t kCorruptionMask = 0xBAD0BAD0BAD0BAD0ULL;

// The whole per-run protocol state; torn down when Run returns.
class BftRun {
 public:
  BftRun(const Scenario* scenario, const BftConfig& config, const std::vector<NodeId>& replicas,
         const AdversarySpec* adversary, uint64_t periods)
      : scenario_(scenario),
        config_(config),
        replicas_(replicas),
        adversary_(adversary),
        periods_(periods),
        sim_(config.seed),
        network_(&sim_, &scenario->topology, config.network),
        oracle_(&scenario->workload) {
    const size_t n = scenario_->topology.node_count();
    for (size_t i = 0; i < n; ++i) {
      const NodeId id(static_cast<uint32_t>(i));
      network_.SetReceiver(id, [this, id](const Packet& packet) { OnPacket(id, packet); });
    }
    exec_cost_ = 0;
    for (const TaskSpec& t : scenario_->workload.tasks()) {
      if (t.kind == TaskKind::kCompute) {
        exec_cost_ += t.wcet;
      }
    }
    active_count_ = config_.mode == BftMode::kPbft ? static_cast<uint32_t>(replicas_.size())
                                                   : config_.f + 1;
    per_replica_.resize(replicas_.size());
    // ZZ standbys start asleep; they neither receive inputs nor execute
    // until a sink wakes them.
    for (size_t r = active_count_; r < per_replica_.size(); ++r) {
      per_replica_[r].awake = false;
    }
    sinks_ = scenario_->workload.SinkIds();
  }

  BftReport Execute() {
    sim_.AtSeries(0, scenario_->workload.period(), periods_,
                  [this](uint64_t p) { BeginPeriod(p); });
    for (const FaultInjection& inj : adversary_->injections()) {
      if (inj.behavior == FaultBehavior::kCrash) {
        sim_.At(inj.manifest_at, [this, inj]() { network_.SetNodeDown(inj.node, true); });
      }
    }
    sim_.RunToCompletion();
    return BuildReport();
  }

 private:
  struct PeriodState {
    std::set<uint32_t> inputs_seen;      // source tasks received
    bool executed = false;
    std::vector<std::pair<uint32_t, uint64_t>> my_digests;
    uint64_t my_digest = 0;
    bool preprepare_seen = false;
    uint64_t preprepare_digest = 0;
    bool prepared = false;
    bool committed = false;
    bool result_sent = false;
    std::set<uint32_t> prepare_from;
    std::set<uint32_t> commit_from;
    std::set<uint32_t> view_change_from;
    bool view_changed = false;
  };
  struct ReplicaState {
    SimTime busy_until = 0;
    bool awake = true;  // ZZ standbys start asleep
    std::map<uint64_t, PeriodState> periods;
  };
  struct SinkInstance {
    std::map<uint64_t, std::set<uint32_t>> votes;  // digest -> replica indices
    bool actuated = false;
    uint64_t digest = 0;
    SimTime at = 0;
    bool woke = false;
  };

  int ReplicaIndexAt(NodeId node) const {
    for (size_t i = 0; i < replicas_.size(); ++i) {
      if (replicas_[i] == node) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  const FaultInjection* FaultOn(NodeId node) const {
    return adversary_->ActiveOn(node, sim_.Now());
  }

  bool Silent(NodeId node) const {
    const FaultInjection* f = FaultOn(node);
    return f != nullptr &&
           (f->behavior == FaultBehavior::kCrash || f->behavior == FaultBehavior::kOmission);
  }

  bool Corrupting(NodeId node) const {
    const FaultInjection* f = FaultOn(node);
    return f != nullptr && (f->behavior == FaultBehavior::kValueCorruption ||
                            f->behavior == FaultBehavior::kEquivocate ||
                            f->behavior == FaultBehavior::kDelay ||
                            f->behavior == FaultBehavior::kSelectiveOmission ||
                            f->behavior == FaultBehavior::kEvidenceFlood);
  }

  void Multicast(NodeId from, const std::shared_ptr<const BftMsg>& msg, bool to_sinks) {
    if (Silent(from)) {
      return;
    }
    const uint32_t bytes = MsgBytes(*msg);
    if (to_sinks) {
      std::set<NodeId> sink_nodes;
      for (TaskId s : sinks_) {
        sink_nodes.insert(scenario_->workload.task(s).pinned_node);
      }
      for (NodeId n : sink_nodes) {
        network_.Send(from, n, bytes, TrafficClass::kForeground, msg);
      }
      return;
    }
    for (NodeId r : replicas_) {
      if (r != from) {
        network_.Send(from, r, bytes, TrafficClass::kForeground, msg);
      }
    }
  }

  void BeginPeriod(uint64_t p) {
    const SimDuration period_len = scenario_->workload.period();
    // Sources disseminate inputs to every replica.
    for (TaskId src : scenario_->workload.SourceIds()) {
      const NodeId node = scenario_->workload.task(src).pinned_node;
      if (Silent(node)) {
        continue;
      }
      auto msg = std::make_shared<BftMsg>();
      msg->type = BftMsgType::kInput;
      msg->period = p;
      msg->from = node;
      msg->source = src;
      for (size_t r = 0; r < replicas_.size(); ++r) {
        if (config_.mode == BftMode::kZz && r >= active_count_ && !per_replica_[r].awake) {
          continue;  // sleeping standby
        }
        network_.Send(node, replicas_[r], MsgBytes(*msg), TrafficClass::kForeground, msg);
      }
    }
    // Timeout for this period.
    const SimTime timeout =
        static_cast<SimTime>(p) * period_len +
        static_cast<SimTime>(config_.timeout_fraction * static_cast<double>(period_len));
    sim_.At(timeout, [this, p]() { OnTimeout(p); });
  }

  void OnTimeout(uint64_t p) {
    if (config_.mode == BftMode::kPbft) {
      // Replicas that have not committed ask for a view change.
      for (size_t r = 0; r < replicas_.size(); ++r) {
        PeriodState& ps = per_replica_[r].periods[p];
        if (ps.committed || Silent(replicas_[r])) {
          continue;
        }
        auto msg = std::make_shared<BftMsg>();
        msg->type = BftMsgType::kViewChange;
        msg->period = p;
        msg->view = view_ + 1;
        msg->from = replicas_[r];
        Multicast(replicas_[r], msg, /*to_sinks=*/false);
        OnViewChangeVote(static_cast<uint32_t>(r), p, view_ + 1);  // own vote
      }
    } else {
      // ZZ: sinks that have not actuated wake the standbys.
      for (TaskId s : sinks_) {
        SinkInstance& inst = sink_state_[std::make_pair(s.value(), p)];
        if (inst.actuated || inst.woke) {
          continue;
        }
        inst.woke = true;
        ++report_.wakeups;
        const NodeId sink_node = scenario_->workload.task(s).pinned_node;
        for (size_t r = active_count_; r < replicas_.size(); ++r) {
          auto msg = std::make_shared<BftMsg>();
          msg->type = BftMsgType::kWake;
          msg->period = p;
          msg->from = sink_node;
          network_.Send(sink_node, replicas_[r], MsgBytes(*msg), TrafficClass::kForeground, msg);
        }
      }
    }
  }

  void OnPacket(NodeId at, const Packet& packet) {
    auto msg = std::dynamic_pointer_cast<const BftMsg>(packet.payload);
    if (msg == nullptr) {
      return;
    }
    const int replica_index = ReplicaIndexAt(at);
    switch (msg->type) {
      case BftMsgType::kInput:
        if (replica_index >= 0) {
          OnInput(static_cast<uint32_t>(replica_index), *msg);
        }
        break;
      case BftMsgType::kPrePrepare:
        if (replica_index >= 0) {
          OnPrePrepare(static_cast<uint32_t>(replica_index), *msg);
        }
        break;
      case BftMsgType::kPrepare:
        if (replica_index >= 0) {
          OnPrepare(static_cast<uint32_t>(replica_index), *msg);
        }
        break;
      case BftMsgType::kCommit:
        if (replica_index >= 0) {
          OnCommit(static_cast<uint32_t>(replica_index), *msg);
        }
        break;
      case BftMsgType::kViewChange:
        if (replica_index >= 0) {
          OnViewChangeVote(static_cast<uint32_t>(replica_index), msg->period, msg->view);
        }
        break;
      case BftMsgType::kResult:
        OnResult(*msg);
        break;
      case BftMsgType::kWake:
        if (replica_index >= 0) {
          OnWake(static_cast<uint32_t>(replica_index), msg->period);
        }
        break;
    }
  }

  void OnInput(uint32_t r, const BftMsg& msg) {
    ReplicaState& rs = per_replica_[r];
    if (config_.mode == BftMode::kZz && r >= active_count_ && !rs.awake) {
      return;
    }
    PeriodState& ps = rs.periods[msg.period];
    ps.inputs_seen.insert(msg.source.value());
    if (ps.executed ||
        ps.inputs_seen.size() < scenario_->workload.SourceIds().size()) {
      return;
    }
    ps.executed = true;
    // Serialize executions on the replica's CPU.
    const SimTime start = std::max(sim_.Now(), rs.busy_until);
    rs.busy_until = start + exec_cost_;
    report_.cpu_per_period += static_cast<double>(exec_cost_);
    sim_.At(rs.busy_until, [this, r, p = msg.period]() { OnExecuted(r, p); });
  }

  void OnExecuted(uint32_t r, uint64_t p) {
    ReplicaState& rs = per_replica_[r];
    PeriodState& ps = rs.periods[p];
    const NodeId node = replicas_[r];
    ps.my_digests.clear();
    for (TaskId s : sinks_) {
      uint64_t digest = oracle_.Golden(s, p);
      if (Corrupting(node)) {
        digest ^= kCorruptionMask;
      }
      ps.my_digests.emplace_back(s.value(), digest);
    }
    ps.my_digest = CombineSinkDigests(ps.my_digests);

    if (config_.mode == BftMode::kZz) {
      // Results go straight to the sinks.
      auto msg = std::make_shared<BftMsg>();
      msg->type = BftMsgType::kResult;
      msg->period = p;
      msg->from = node;
      msg->sink_digests = ps.my_digests;
      msg->digest = ps.my_digest;
      Multicast(node, msg, /*to_sinks=*/true);
      return;
    }
    // PBFT: the primary proposes.
    MaybePropose(r, p);
    MaybePrepare(r, p);
  }

  void MaybePropose(uint32_t r, uint64_t p) {
    if (r != view_ % replicas_.size()) {
      return;
    }
    ReplicaState& rs = per_replica_[r];
    PeriodState& ps = rs.periods[p];
    if (!ps.executed || rs.busy_until > sim_.Now()) {
      return;
    }
    auto msg = std::make_shared<BftMsg>();
    msg->type = BftMsgType::kPrePrepare;
    msg->period = p;
    msg->view = view_;
    msg->from = replicas_[r];
    msg->sink_digests = ps.my_digests;
    msg->digest = ps.my_digest;
    Multicast(replicas_[r], msg, /*to_sinks=*/false);
    // Primary's own pre-prepare.
    ps.preprepare_seen = true;
    ps.preprepare_digest = ps.my_digest;
    MaybePrepare(r, p);
  }

  void OnPrePrepare(uint32_t r, const BftMsg& msg) {
    PeriodState& ps = per_replica_[r].periods[msg.period];
    if (ps.preprepare_seen) {
      return;
    }
    ps.preprepare_seen = true;
    ps.preprepare_digest = msg.digest;
    MaybePrepare(r, msg.period);
  }

  void MaybePrepare(uint32_t r, uint64_t p) {
    PeriodState& ps = per_replica_[r].periods[p];
    if (!ps.executed || !ps.preprepare_seen || ps.prepared ||
        per_replica_[r].busy_until > sim_.Now()) {
      return;
    }
    if (ps.preprepare_digest != ps.my_digest) {
      return;  // disagree with the primary; the timeout will handle it
    }
    ps.prepared = true;
    auto msg = std::make_shared<BftMsg>();
    msg->type = BftMsgType::kPrepare;
    msg->period = p;
    msg->from = replicas_[r];
    msg->digest = ps.my_digest;
    Multicast(replicas_[r], msg, /*to_sinks=*/false);
    ps.prepare_from.insert(r);
    MaybeCommit(r, p);
  }

  void OnPrepare(uint32_t r, const BftMsg& msg) {
    PeriodState& ps = per_replica_[r].periods[msg.period];
    const int from = ReplicaIndexAt(msg.from);
    if (from >= 0 && msg.digest == ps.my_digest) {
      ps.prepare_from.insert(static_cast<uint32_t>(from));
    }
    MaybeCommit(r, msg.period);
  }

  void MaybeCommit(uint32_t r, uint64_t p) {
    PeriodState& ps = per_replica_[r].periods[p];
    const size_t quorum = 2 * config_.f + 1;
    if (!ps.prepared || ps.committed || ps.prepare_from.size() < quorum) {
      return;
    }
    ps.committed = true;
    auto msg = std::make_shared<BftMsg>();
    msg->type = BftMsgType::kCommit;
    msg->period = p;
    msg->from = replicas_[r];
    msg->digest = ps.my_digest;
    Multicast(replicas_[r], msg, /*to_sinks=*/false);
    ps.commit_from.insert(r);
    MaybeRespond(r, p);
  }

  void OnCommit(uint32_t r, const BftMsg& msg) {
    PeriodState& ps = per_replica_[r].periods[msg.period];
    const int from = ReplicaIndexAt(msg.from);
    if (from >= 0 && msg.digest == ps.my_digest) {
      ps.commit_from.insert(static_cast<uint32_t>(from));
    }
    MaybeRespond(r, msg.period);
  }

  void MaybeRespond(uint32_t r, uint64_t p) {
    PeriodState& ps = per_replica_[r].periods[p];
    const size_t quorum = 2 * config_.f + 1;
    if (!ps.committed || ps.result_sent || ps.commit_from.size() < quorum) {
      return;
    }
    ps.result_sent = true;
    auto msg = std::make_shared<BftMsg>();
    msg->type = BftMsgType::kResult;
    msg->period = p;
    msg->from = replicas_[r];
    msg->sink_digests = ps.my_digests;
    msg->digest = ps.my_digest;
    Multicast(replicas_[r], msg, /*to_sinks=*/true);
  }

  void OnViewChangeVote(uint32_t r, uint64_t p, uint64_t proposed_view) {
    if (proposed_view <= view_) {
      return;
    }
    PeriodState& ps = per_replica_[r].periods[p];
    ps.view_change_from.insert(r);
    // Global (simplified) view change: 2f+1 distinct complainers anywhere.
    std::set<uint32_t> complainers;
    for (size_t i = 0; i < per_replica_.size(); ++i) {
      auto it = per_replica_[i].periods.find(p);
      if (it != per_replica_[i].periods.end()) {
        complainers.insert(it->second.view_change_from.begin(),
                           it->second.view_change_from.end());
      }
    }
    if (complainers.size() >= 2 * config_.f + 1 && !view_changed_for_.count(p)) {
      view_changed_for_.insert(p);
      view_ = proposed_view;
      ++report_.view_changes;
      // The new primary re-proposes this period.
      const uint32_t new_primary = static_cast<uint32_t>(view_ % replicas_.size());
      sim_.After(0, [this, new_primary, p]() { MaybePropose(new_primary, p); });
    }
  }

  void OnWake(uint32_t r, uint64_t p) {
    ReplicaState& rs = per_replica_[r];
    if (rs.awake) {
      return;
    }
    sim_.After(config_.wake_delay, [this, r, p]() {
      per_replica_[r].awake = true;
      // Ask sources to resend by simulating immediate input availability:
      // standbys read the inputs from their log (modeled as instant) and
      // execute the missed period.
      ReplicaState& rs2 = per_replica_[r];
      PeriodState& ps = rs2.periods[p];
      if (ps.executed) {
        return;
      }
      ps.executed = true;
      const SimTime start = std::max(sim_.Now(), rs2.busy_until);
      rs2.busy_until = start + exec_cost_;
      report_.cpu_per_period += static_cast<double>(exec_cost_);
      sim_.At(rs2.busy_until, [this, r, p]() { OnExecuted(r, p); });
    });
  }

  void OnResult(const BftMsg& msg) {
    const int from = ReplicaIndexAt(msg.from);
    if (from < 0) {
      return;
    }
    for (const auto& [task_value, digest] : msg.sink_digests) {
      SinkInstance& inst = sink_state_[std::make_pair(task_value, msg.period)];
      if (inst.actuated) {
        continue;
      }
      auto& votes = inst.votes[digest];
      votes.insert(static_cast<uint32_t>(from));
      if (votes.size() >= config_.f + 1) {
        inst.actuated = true;
        inst.digest = digest;
        inst.at = sim_.Now();
      }
    }
  }

  BftReport BuildReport() {
    const SimDuration period_len = scenario_->workload.period();
    report_.replicas_total = static_cast<uint32_t>(replicas_.size());
    report_.replicas_active = active_count_;
    report_.bytes_per_period =
        static_cast<double>(network_.stats().total_link_bytes) / static_cast<double>(periods_);
    report_.cpu_per_period /= static_cast<double>(periods_);

    SimTime first_fault = kSimTimeNever;
    for (const FaultInjection& inj : adversary_->injections()) {
      first_fault = std::min(first_fault, inj.manifest_at);
    }

    uint64_t disruption_run = 0;
    for (uint64_t p = 0; p < periods_; ++p) {
      bool period_bad = false;
      for (TaskId s : sinks_) {
        const TaskSpec& spec = scenario_->workload.task(s);
        const SimTime deadline = static_cast<SimTime>(p) * period_len + spec.relative_deadline;
        auto it = sink_state_.find(std::make_pair(s.value(), p));
        if (it == sink_state_.end() || !it->second.actuated) {
          ++report_.missing_outputs;
          period_bad = true;
          continue;
        }
        const SinkInstance& inst = it->second;
        if (inst.digest != oracle_.Golden(s, p)) {
          ++report_.wrong_outputs;
          period_bad = true;
        } else if (inst.at > deadline) {
          ++report_.late_outputs;
          period_bad = true;
          report_.sink_latency.Add(
              static_cast<double>(inst.at - static_cast<SimTime>(p) * period_len));
        } else {
          ++report_.correct_outputs;
          report_.sink_latency.Add(
              static_cast<double>(inst.at - static_cast<SimTime>(p) * period_len));
        }
      }
      if (first_fault != kSimTimeNever &&
          static_cast<SimTime>(p) * period_len >= first_fault) {
        disruption_run = period_bad ? disruption_run + 1 : 0;
        report_.max_disruption =
            std::max(report_.max_disruption,
                     static_cast<SimDuration>(disruption_run) * period_len);
      }
    }
    return report_;
  }

  const Scenario* scenario_;
  BftConfig config_;
  std::vector<NodeId> replicas_;
  const AdversarySpec* adversary_;
  uint64_t periods_;

  Simulator sim_;
  Network network_;
  GoldenOracle oracle_;
  SimDuration exec_cost_ = 0;
  uint32_t active_count_ = 0;
  uint64_t view_ = 0;
  std::set<uint64_t> view_changed_for_;
  std::vector<ReplicaState> per_replica_;
  std::vector<TaskId> sinks_;
  std::map<std::pair<uint32_t, uint64_t>, SinkInstance> sink_state_;
  BftReport report_;
};

}  // namespace

BftBaseline::BftBaseline(const Scenario* scenario, BftConfig config)
    : scenario_(scenario), config_(config) {
  // Prefer nodes that do not host sources/sinks; fall back to any node.
  std::set<NodeId> pinned;
  for (const TaskSpec& t : scenario_->workload.tasks()) {
    if (t.pinned_node.valid()) {
      pinned.insert(t.pinned_node);
    }
  }
  const uint32_t needed =
      config_.mode == BftMode::kPbft ? 3 * config_.f + 1 : 2 * config_.f + 1;
  for (size_t i = 0; i < scenario_->topology.node_count() && replicas_.size() < needed; ++i) {
    const NodeId id(static_cast<uint32_t>(i));
    if (pinned.count(id) == 0) {
      replicas_.push_back(id);
    }
  }
  for (size_t i = 0; i < scenario_->topology.node_count() && replicas_.size() < needed; ++i) {
    const NodeId id(static_cast<uint32_t>(i));
    if (std::find(replicas_.begin(), replicas_.end(), id) == replicas_.end()) {
      replicas_.push_back(id);
    }
  }
}

StatusOr<BftReport> BftBaseline::Run(uint64_t periods, const AdversarySpec& adversary) {
  const uint32_t needed =
      config_.mode == BftMode::kPbft ? 3 * config_.f + 1 : 2 * config_.f + 1;
  if (replicas_.size() < needed) {
    return Status::InvalidArgument("not enough nodes for " + std::to_string(needed) +
                                   " replicas");
  }
  BftRun run(scenario_, config_, replicas_, &adversary, periods);
  return run.Execute();
}

}  // namespace btr
