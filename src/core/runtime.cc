#include "src/core/runtime.h"

#include <algorithm>
#include <cassert>

#include "src/common/exec_context.h"
#include "src/common/hash.h"
#include "src/common/log.h"
#include "src/core/golden.h"

namespace btr {
namespace {

// XOR mask a value-corrupting adversary applies to its outputs.
constexpr uint64_t kCorruptionMask = 0xBAD0BAD0BAD0BAD0ULL;

// Buffer retention horizon, in periods.
constexpr uint64_t kBufferHorizon = 4;

// Evidence items batch-verified per verifier-loop chunk (signature checks
// for a chunk go through the KeyStore in one pass).
constexpr size_t kVerifyChunk = 8;

}  // namespace

// ---------------------------------------------------------------------------
// BtrRuntime
// ---------------------------------------------------------------------------

BtrRuntime::BtrRuntime(const RuntimeContext& ctx) : ctx_(ctx) {
  assert(ctx_.sim != nullptr && ctx_.network != nullptr && ctx_.strategy != nullptr);
  const uint32_t shards = ctx_.sim->shard_count();
  arenas_.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    arenas_.push_back(std::make_shared<BlockPool>());
    if (shards > 1) {
      arenas_.back()->BindOwnerShard(s);
    }
  }
  conviction_shards_.resize(shards);
  const size_t n = ctx_.topo->node_count();
  nodes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const NodeId id(static_cast<uint32_t>(i));
    nodes_.push_back(std::make_unique<NodeRuntime>(
        this, ctx_, id, ctx_.keys->SignerFor(id),
        arenas_[ctx_.sim->ShardOf(static_cast<uint32_t>(i))]));
    NodeRuntime* node = nodes_.back().get();
    ctx_.network->SetReceiver(id, [node](const Packet& packet) { node->OnPacket(packet); });
  }
}

BtrRuntime::~BtrRuntime() = default;

void BtrRuntime::Start(uint64_t periods) {
  periods_ = periods;
  const Plan* root = ctx_.strategy->Lookup(FaultSet());
  assert(root != nullptr && "strategy must contain the fault-free plan");
  ctx_.network->SetRouting(root->routing);

  ctx_.sim->AtSeries(0, ctx_.workload->period(), periods, [this](uint64_t p) {
    for (auto& node : nodes_) {
      node->BeginPeriod(p);
    }
  });

  // Adversary side effects visible to the network layer. A transient
  // injection (finite `until`) undoes its side effect when it heals; the
  // heal consults ActiveOn so an overlapping still-active injection of the
  // same behavior keeps the node down.
  for (const FaultInjection& inj : ctx_.adversary->injections()) {
    ctx_.sim->At(inj.manifest_at, [this, inj]() {
      switch (inj.behavior) {
        case FaultBehavior::kCrash:
          ctx_.network->SetNodeDown(inj.node, true);
          break;
        case FaultBehavior::kOmission:
          ctx_.network->SetRelayDrop(inj.node, true);
          break;
        default:
          break;
      }
    });
    if (inj.until == kSimTimeNever || (inj.behavior != FaultBehavior::kCrash &&
                                       inj.behavior != FaultBehavior::kOmission)) {
      continue;
    }
    ctx_.sim->At(inj.until, [this, inj]() {
      const FaultInjection* still = ctx_.adversary->ActiveOn(inj.node, ctx_.sim->Now());
      if (inj.behavior == FaultBehavior::kCrash &&
          (still == nullptr || still->behavior != FaultBehavior::kCrash)) {
        ctx_.network->SetNodeDown(inj.node, false);
      }
      if (inj.behavior == FaultBehavior::kOmission &&
          (still == nullptr || still->behavior != FaultBehavior::kOmission)) {
        ctx_.network->SetRelayDrop(inj.node, false);
      }
      if (still == nullptr) {
        // A healed node rejoins the dissemination conversation: its stale
        // beacon makes neighbors reset their Trickle intervals and re-offer,
        // and its resume request picks the transfer up where it stopped.
        nodes_[inj.node.value()]->WakeInstall();
      }
    });
  }
}

Status BtrRuntime::ScheduleStrategyInstall(SimTime at,
                                           std::shared_ptr<const StrategyUpdate> update,
                                           NodeId distributor) {
  if (update == nullptr) {
    return Status::InvalidArgument("strategy install: no update");
  }
  if (update->base_slices.size() != nodes_.size() ||
      update->patch_slices.size() != nodes_.size()) {
    return Status::InvalidArgument("strategy install: update built for " +
                                   std::to_string(update->base_slices.size()) +
                                   " nodes, runtime has " + std::to_string(nodes_.size()));
  }
  if (!distributor.valid() || distributor.value() >= nodes_.size()) {
    return Status::InvalidArgument("strategy install: distributor outside the node universe");
  }
  update_ = std::move(update);
  ctx_.sim->At(at, [this, distributor]() {
    install_started_at_ = ctx_.sim->Now();
    // No shipments yet: every node's agent installs its base slice, the
    // distributor applies its own patch locally, and every agent starts
    // Trickle gossip; the distributor's beacons announce the target and
    // neighbors pull, hop by hop.
    for (auto& node : nodes_) {
      node->StartInstall(update_, distributor);
    }
  });
  return Status::Ok();
}

const InstallRunReport& BtrRuntime::install_report() const {
  InstallRunReport& report = install_report_;
  report = InstallRunReport();
  if (update_ == nullptr) {
    return report;
  }
  report.started_at = install_started_at_;
  // Sums over the per-node agents, in node order — shard-layout invariant
  // by construction.
  for (const auto& node : nodes_) {
    const InstallAgent& agent = node->install_agent();
    if (const DissemAgentStats* stats = agent.gossip_stats()) {
      report.dissem.MergeFrom(*stats);
    }
    report.fallbacks += agent.local_fallbacks();
  }
  report.fallbacks += report.dissem.fallbacks;
  report.patch_bytes_sent += report.dissem.patch_payload_bytes;
  report.full_bytes_sent += report.dissem.full_payload_bytes;
  // Completion waits only for nodes no honest node convicted: the rest are
  // isolated, so no neighbor serves them. The set comes from the canonical
  // conviction list, so it is layout-invariant like the install times.
  std::vector<bool> isolated(nodes_.size(), false);
  for (const ConvictionEvent& ev : convictions()) {
    if (ctx_.adversary->ManifestTime(ev.by) == kSimTimeNever) {
      isolated[ev.convicted.value()] = true;
    }
  }
  size_t installed = 0;
  SimTime last = -1;
  bool complete = true;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    const SimTime at = nodes_[n]->install_agent().installed_at();
    const bool done = at != kSimTimeNever;
    installed += done ? 1 : 0;
    if (!isolated[n]) {
      complete = complete && done;
      last = done ? std::max(last, at) : last;
    }
  }
  report.nodes_installed = installed;
  report.completed_at = complete && last >= 0 ? last : kSimTimeNever;
  return report;
}

const NodeStats& BtrRuntime::node_stats(NodeId node) const {
  return nodes_[node.value()]->stats();
}

NodeStats BtrRuntime::TotalStats() const {
  NodeStats total;
  for (const auto& node : nodes_) {
    const NodeStats& s = node->stats();
    total.busy += s.busy;
    total.crypto += s.crypto;
    total.verify_used += s.verify_used;
    total.evidence_generated += s.evidence_generated;
    total.evidence_validated += s.evidence_validated;
    total.evidence_rejected += s.evidence_rejected;
    total.evidence_dropped_queue += s.evidence_dropped_queue;
    total.path_declarations += s.path_declarations;
    total.mode_switches += s.mode_switches;
    total.evidence_queue_peak = std::max(total.evidence_queue_peak, s.evidence_queue_peak);
  }
  return total;
}

void BtrRuntime::RecordConviction(const ConvictionEvent& event) {
  const ExecContext& exec = ThisThreadExec();
  conviction_shards_[exec.worker ? exec.shard : 0].items.push_back(event);
}

const std::vector<ConvictionEvent>& BtrRuntime::convictions() const {
  size_t total = 0;
  for (const ConvictionShard& sh : conviction_shards_) {
    total += sh.items.size();
  }
  // Buffers only grow, so a size mismatch is an exact staleness test.
  if (convictions_merged_.size() != total) {
    convictions_merged_.clear();
    convictions_merged_.reserve(total);
    for (const ConvictionShard& sh : conviction_shards_) {
      convictions_merged_.insert(convictions_merged_.end(), sh.items.begin(), sh.items.end());
    }
    // Canonical order. (convicted, by) pairs are unique — Convict() records
    // at most once per observer — so the order is total and layout-invariant.
    std::sort(convictions_merged_.begin(), convictions_merged_.end(),
              [](const ConvictionEvent& a, const ConvictionEvent& b) {
                if (a.at != b.at) return a.at < b.at;
                if (a.convicted != b.convicted) return a.convicted < b.convicted;
                if (a.by != b.by) return a.by < b.by;
                return static_cast<int>(a.kind) < static_cast<int>(b.kind);
              });
  }
  return convictions_merged_;
}

SimTime BtrRuntime::FirstConvictionOf(NodeId node) const {
  SimTime first = kSimTimeNever;
  for (const ConvictionEvent& ev : convictions()) {
    if (ev.convicted != node) {
      continue;
    }
    if (ctx_.adversary->ManifestTime(ev.by) != kSimTimeNever) {
      continue;  // only honest observers count
    }
    first = std::min(first, ev.at);
  }
  return first;
}

SimTime BtrRuntime::LastConvictionOf(NodeId node) const {
  SimTime last = kSimTimeNever;
  SimTime max_seen = -1;
  size_t honest_total = 0;
  size_t honest_convinced = 0;
  for (const auto& nr : nodes_) {
    if (ctx_.adversary->ManifestTime(nr->id()) != kSimTimeNever) {
      continue;
    }
    ++honest_total;
    if (nr->fault_set().Contains(node)) {
      ++honest_convinced;
    }
  }
  for (const ConvictionEvent& ev : convictions()) {
    if (ev.convicted != node || ctx_.adversary->ManifestTime(ev.by) != kSimTimeNever) {
      continue;
    }
    max_seen = std::max(max_seen, ev.at);
  }
  if (honest_total > 0 && honest_convinced == honest_total && max_seen >= 0) {
    last = max_seen;
  }
  return last;
}

NodeRuntime* BtrRuntime::node(NodeId id) { return nodes_[id.value()].get(); }

// ---------------------------------------------------------------------------
// NodeRuntime
// ---------------------------------------------------------------------------

NodeRuntime::NodeRuntime(BtrRuntime* owner, const RuntimeContext& ctx, NodeId id, Signer signer,
                         std::shared_ptr<BlockPool> arena)
    : owner_(owner),
      ctx_(ctx),
      id_(id),
      signer_(signer),
      validator_(ctx.keys, ctx.workload, ctx.config.validation),
      arena_(std::move(arena)),
      install_(ctx, id, fault_set_, arena_),
      blame_(ctx.config.blame_threshold, ctx.config.blame_window_periods) {
  AdoptPlan(ctx_.strategy->Lookup(FaultSet()));
  // Each node reads time through its own (periodically resynchronized)
  // clock: a deterministic per-node residual offset bounded by
  // max_clock_offset. The detector's epsilon must cover it.
  if (ctx_.config.max_clock_offset > 0) {
    Hasher h;
    h.Add(id.value()).Add(uint32_t{0xc1c});
    const SimDuration span = 2 * ctx_.config.max_clock_offset + 1;
    const SimDuration offset =
        static_cast<SimDuration>(h.Digest() % static_cast<uint64_t>(span)) -
        ctx_.config.max_clock_offset;
    clock_ = LocalClock(offset, 0.0);
  }
}

const FaultInjection* NodeRuntime::ActiveFault() const {
  return ctx_.adversary->ActiveOn(id_, ctx_.sim->Now());
}

bool NodeRuntime::Crashed() const {
  const FaultInjection* f = ActiveFault();
  return f != nullptr && f->behavior == FaultBehavior::kCrash;
}

void NodeRuntime::BeginPeriod(uint64_t period) {
  current_period_ = period;
  if (pending_plan_ != nullptr) {
    AdoptPlan(pending_plan_);
    pending_plan_ = nullptr;
    ++stats_.mode_switches;
    quiet_until_period_ = period + ctx_.config.timing_quiet_periods;
    // Routing is a property of the plan; whoever switches installs it (all
    // honest nodes converge to the same plan, so this is idempotent).
    ctx_.network->SetRouting(plan_->routing);
  }
  if (plan_ == nullptr || Crashed()) {
    return;
  }

  // Retire stale buffers once per horizon, whole periods at a time: memory
  // stays bounded by about twice the horizon.
  if (period >= kBufferHorizon && period % kBufferHorizon == 0) {
    const uint64_t floor = period - kBufferHorizon;
    inputs_.DropPeriodsBelow(floor);
    replica_records_.DropPeriodsBelow(floor);
    heartbeats_seen_.DropPeriodsBelow(floor);
    declared_.DropPeriodsBelow(floor);
  }

  const SimDuration period_len = ctx_.workload->period();
  const SimTime base = static_cast<SimTime>(period) * period_len;
  for (const ScheduleEntry& entry : plan_->tables()[id_.value()].entries()) {
    // Jobs take effect at completion time: outputs are sent when the WCET
    // window closes. The event is owned by this node (BeginPeriod runs on
    // the exclusive driver path, so the schedule lands directly on the
    // node's shard queue).
    ctx_.sim->AtActor(id_.value(), base + entry.start + entry.duration,
                      [this, job = entry.job, period]() { ExecuteJob(job, period); });
  }
}

void NodeRuntime::ExecuteJob(uint32_t aug_id, uint64_t period) {
  if (Crashed() || plan_ == nullptr) {
    return;
  }
  // A mode switch between scheduling and execution invalidates the job.
  if (!plan_->placement()[aug_id].valid() || plan_->placement()[aug_id] != id_) {
    return;
  }
  const AugTask& task = ctx_.graph->task(aug_id);
  stats_.busy += task.wcet;
  switch (task.kind) {
    case AugKind::kWorkload:
      ExecuteWorkload(task, period);
      break;
    case AugKind::kChecker:
      ExecuteChecker(task, period);
      break;
    case AugKind::kVerifier:
      ExecuteVerifier(task, period);
      break;
  }
}

void NodeRuntime::ExecuteWorkload(const AugTask& task, uint64_t period) {
  const TaskSpec& spec = ctx_.workload->task(task.workload_task);
  const FaultInjection* fault = ActiveFault();

  // Migration state must have arrived before a stateful task can run.
  if (spec.state_bytes > 0 && !StateReady(spec.id)) {
    return;
  }

  // Gather inputs (sources have none). `claimed` is moved into the record
  // it signs (inline storage, no allocation); `values` is reused scratch.
  OutputRecord::SignedInputs claimed;
  std::vector<InputValue>& values = values_scratch_;
  values.clear();
  std::vector<TaskId> missing;
  uint64_t digest = 0;
  if (spec.kind == TaskKind::kSource) {
    digest = SourceValue(spec.id, period);
  } else {
    for (const ChannelSpec& ch : ctx_.workload->Inputs(spec.id)) {
      const ReceivedInput* in = inputs_.Find(PackIdPeriod(ch.from.value(), period));
      if (in == nullptr) {
        missing.push_back(ch.from);
        // Producer output missing: declare the path to the producer's host —
        // unless the producer sent a gap notice (it is alive but starved
        // upstream; blaming it would cascade omission blame down the whole
        // dataflow), or we are inside a mode-switch quiet window (a migrated
        // producer may legitimately be waiting for its state transfer).
        const uint32_t producer_primary = ctx_.graph->PrimaryOf(ch.from);
        const NodeId producer_node = plan_->placement()[producer_primary];
        const std::shared_ptr<const OutputRecord>* gap_rec =
            replica_records_.Find(PackTaskReplicaPeriod(ch.from.value(), 0, period));
        const bool excused_by_gap = gap_rec != nullptr && (*gap_rec)->gap;
        if (producer_node.valid() && producer_node != id_ && !excused_by_gap &&
            period >= quiet_until_period_ && pending_plan_ == nullptr) {
          DeclarePath(producer_node, id_, period);
        }
        continue;
      }
      claimed.push_back(SignedInput{ch.from, in->digest, in->value_sig});
      values.push_back(InputValue{ch.from, in->digest});
    }
    if (!missing.empty()) {
      SendGapNotice(task, period, std::move(missing));
      return;  // cannot produce this period's output
    }
    std::sort(claimed.begin(), claimed.end(),
              [](const SignedInput& a, const SignedInput& b) { return a.producer < b.producer; });
    std::sort(values.begin(), values.end(),
              [](const InputValue& a, const InputValue& b) { return a.producer < b.producer; });
    digest = ComputeOutput(spec.id, period, values);
  }

  const bool corrupt = fault != nullptr && fault->behavior == FaultBehavior::kValueCorruption;
  if (corrupt) {
    digest ^= kCorruptionMask;
  }

  if (spec.kind == TaskKind::kSink) {
    // Actuation: hand the command to the physical world (the monitor).
    ctx_.monitor->RecordSinkOutput(spec.id, period, digest, ctx_.sim->Now());
    return;
  }

  // Build and sign the output record.
  auto record = NewPayload<OutputRecord>();
  record->task = spec.id;
  record->replica = task.replica;
  record->period = period;
  record->digest = digest;
  record->claimed_inputs = std::move(claimed);
  record->sender = id_;
  record->value_sig = signer_.Sign(InputContentDigest(spec.id, period, digest));
  record->sender_sig = signer_.Sign(record->SealDigest());
  stats_.crypto += 2 * ctx_.config.crypto.sign_cost;

  // Destination set.
  std::vector<Dest>& dests = dests_scratch_;
  dests.clear();
  const uint32_t record_bytes = record->WireBytes();
  if (task.replica == 0) {
    for (const ChannelSpec& ch : ctx_.workload->Outputs(spec.id)) {
      const uint32_t bytes = std::max(ch.message_bytes, record_bytes);
      for (uint32_t consumer : ctx_.graph->ReplicasOf(ch.to)) {
        const NodeId to = plan_->placement()[consumer];
        if (to.valid()) {
          dests.push_back(Dest{to, bytes});
        }
      }
      const uint32_t consumer_chk = ctx_.graph->CheckerOf(ch.to);
      if (consumer_chk != AugmentedGraph::kNone && plan_->placement()[consumer_chk].valid()) {
        dests.push_back(Dest{plan_->placement()[consumer_chk], bytes});
      }
    }
  }
  const uint32_t own_chk = ctx_.graph->CheckerOf(spec.id);
  if (own_chk != AugmentedGraph::kNone && plan_->placement()[own_chk].valid()) {
    dests.push_back(Dest{plan_->placement()[own_chk], record_bytes});
  }

  // Adversarial send behavior.
  if (fault != nullptr && fault->behavior == FaultBehavior::kOmission) {
    return;  // executes but stays silent
  }
  std::shared_ptr<OutputRecord> equivocal;
  if (fault != nullptr && fault->behavior == FaultBehavior::kEquivocate) {
    // The copy starts with an unsealed digest cache, so mutating it below
    // cannot leak the original's digest.
    equivocal = NewPayload<OutputRecord>(*record);
    equivocal->digest = digest ^ kCorruptionMask;
    equivocal->value_sig =
        signer_.Sign(InputContentDigest(spec.id, period, equivocal->digest));
    equivocal->sender_sig = signer_.Sign(equivocal->SealDigest());
    stats_.crypto += 2 * ctx_.config.crypto.sign_cost;
  }
  size_t index = 0;
  for (const Dest& dest : dests) {
    if (fault != nullptr && fault->behavior == FaultBehavior::kSelectiveOmission &&
        dest.node == fault->target) {
      continue;
    }
    std::shared_ptr<const OutputRecord> to_send = record;
    if (equivocal != nullptr && index % 2 == 1) {
      to_send = equivocal;
    }
    ++index;
    if (fault != nullptr && fault->behavior == FaultBehavior::kDelay) {
      ctx_.sim->After(fault->delay,
                      [this, to_send, dest]() { SendRecord(to_send, dest.node, dest.bytes); });
    } else {
      SendRecord(to_send, dest.node, dest.bytes);
    }
  }
}

void NodeRuntime::SendRecord(const std::shared_ptr<const OutputRecord>& record, NodeId to,
                             uint32_t wire_bytes) {
  if (Crashed()) {
    return;
  }
  ctx_.network->Send(id_, to, wire_bytes, TrafficClass::kForeground, record);
}

void NodeRuntime::SendGapNotice(const AugTask& task, uint64_t period,
                                std::vector<TaskId> missing) {
  const FaultInjection* fault = ActiveFault();
  if (fault != nullptr && (fault->behavior == FaultBehavior::kCrash ||
                           fault->behavior == FaultBehavior::kOmission)) {
    return;  // a silent adversary stays silent
  }
  const TaskSpec& spec = ctx_.workload->task(task.workload_task);
  auto record = NewPayload<OutputRecord>();
  record->task = spec.id;
  record->replica = task.replica;
  record->period = period;
  record->sender = id_;
  record->gap = true;
  record->gap_missing.assign(missing.begin(), missing.end());
  record->sender_sig = signer_.Sign(record->SealDigest());
  stats_.crypto += ctx_.config.crypto.sign_cost;

  const uint32_t bytes = record->WireBytes();
  std::vector<NodeId> dests;
  if (task.replica == 0) {
    for (const ChannelSpec& ch : ctx_.workload->Outputs(spec.id)) {
      for (uint32_t consumer : ctx_.graph->ReplicasOf(ch.to)) {
        if (plan_->placement()[consumer].valid()) {
          dests.push_back(plan_->placement()[consumer]);
        }
      }
      const uint32_t consumer_chk = ctx_.graph->CheckerOf(ch.to);
      if (consumer_chk != AugmentedGraph::kNone && plan_->placement()[consumer_chk].valid()) {
        dests.push_back(plan_->placement()[consumer_chk]);
      }
    }
  }
  const uint32_t own_chk = ctx_.graph->CheckerOf(spec.id);
  if (own_chk != AugmentedGraph::kNone && plan_->placement()[own_chk].valid()) {
    dests.push_back(plan_->placement()[own_chk]);
  }
  for (NodeId to : dests) {
    if (fault != nullptr && fault->behavior == FaultBehavior::kSelectiveOmission &&
        to == fault->target) {
      continue;
    }
    ctx_.network->Send(id_, to, bytes, TrafficClass::kForeground, record);
  }
}

void NodeRuntime::ExecuteChecker(const AugTask& task, uint64_t period) {
  const TaskSpec& spec = ctx_.workload->task(task.workload_task);
  const FaultInjection* fault = ActiveFault();
  if (fault != nullptr) {
    // A compromised checker gains nothing by honest checking; evidence
    // fabrication is handled by the kEvidenceFlood verifier behavior.
    return;
  }

  // Source inputs are replayable by anyone (a source's output is a pure
  // function of (task, period)), so the checker validates its own copies of
  // them first; a corrupted sensor node is convicted directly.
  for (const ChannelSpec& ch : ctx_.workload->Inputs(spec.id)) {
    if (ctx_.workload->task(ch.from).kind != TaskKind::kSource) {
      continue;
    }
    const std::shared_ptr<const OutputRecord>* src_found =
        replica_records_.Find(PackTaskReplicaPeriod(ch.from.value(), 0, period));
    if (src_found == nullptr) {
      continue;
    }
    const std::shared_ptr<const OutputRecord>& src_rec = *src_found;
    stats_.crypto += ctx_.config.crypto.verify_cost;
    if (!ctx_.keys->Verify(src_rec->sender_sig, src_rec->ContentDigest())) {
      continue;
    }
    if (src_rec->digest != SourceValue(ch.from, period)) {
      auto ev = NewPayload<EvidenceRecord>();
      ev->kind = EvidenceKind::kCommission;
      ev->declarer = id_;
      ev->period = period;
      ev->record = src_rec;
      ev->declarer_sig = signer_.Sign(ev->SealDigest());
      EmitEvidence(std::move(ev));
    }
  }

  for (uint32_t replica_aug : ctx_.graph->ReplicasOf(spec.id)) {
    const AugTask& rep = ctx_.graph->task(replica_aug);
    const NodeId rep_node = plan_->placement()[replica_aug];
    if (!rep_node.valid()) {
      continue;  // replica shed in this mode
    }
    const std::shared_ptr<const OutputRecord>* found =
        replica_records_.Find(PackTaskReplicaPeriod(spec.id.value(), rep.replica, period));
    if (found == nullptr) {
      // Same quiet-window rule as for missing inputs: a migrated replica may
      // still be waiting for state right after a mode switch.
      if (rep_node != id_ && period >= quiet_until_period_ && pending_plan_ == nullptr) {
        DeclarePath(rep_node, id_, period);
      }
      continue;
    }
    const std::shared_ptr<const OutputRecord>& rec = *found;

    // Attribution first: unattributable records are treated as missing.
    stats_.crypto += ctx_.config.crypto.verify_cost;
    if (!ctx_.keys->Verify(rec->sender_sig, rec->ContentDigest())) {
      DeclarePath(rep_node, id_, period);
      continue;
    }

    if (rec->gap) {
      // The replica claims starvation. Plausible iff at least one of the
      // inputs it names is also missing (or gapped) in our own copies — we
      // receive the same producer primaries it does. An implausible gap is
      // treated as a missing record (path blame), which is as far as the
      // paper's omission attribution goes.
      bool plausible = false;
      for (TaskId producer : rec->gap_missing) {
        if (!inputs_.Contains(PackIdPeriod(producer.value(), period))) {
          plausible = true;
          break;
        }
      }
      if (!plausible && rep_node != id_ && period >= quiet_until_period_ &&
          pending_plan_ == nullptr) {
        DeclarePath(rep_node, id_, period);
      }
      continue;
    }

    // Claimed-input signatures: a record whose inputs do not verify is
    // itself commission evidence.
    bool inner_ok = true;
    for (const SignedInput& in : rec->claimed_inputs) {
      stats_.crypto += ctx_.config.crypto.verify_cost;
      if (!ctx_.keys->Verify(in.producer_sig,
                             InputContentDigest(in.producer, period, in.digest))) {
        inner_ok = false;
        break;
      }
    }
    if (!inner_ok) {
      auto ev = NewPayload<EvidenceRecord>();
      ev->kind = EvidenceKind::kCommission;
      ev->declarer = id_;
      ev->period = period;
      ev->record = rec;
      ev->declarer_sig = signer_.Sign(ev->SealDigest());
      EmitEvidence(std::move(ev));
      continue;
    }

    // Equivocation: the replica's claimed inputs vs my own copies.
    for (const SignedInput& in : rec->claimed_inputs) {
      const ReceivedInput* mine = inputs_.Find(PackIdPeriod(in.producer.value(), period));
      if (mine == nullptr || mine->digest == in.digest) {
        continue;
      }
      auto ev = NewPayload<EvidenceRecord>();
      ev->kind = EvidenceKind::kEquivocation;
      ev->declarer = id_;
      ev->period = period;
      ev->eq_task = in.producer;
      ev->eq_a = SignedInput{in.producer, mine->digest, mine->value_sig};
      ev->eq_b = in;
      ev->declarer_sig = signer_.Sign(ev->SealDigest());
      EmitEvidence(std::move(ev));
    }

    // Replay on the record's own claimed inputs.
    uint64_t expected;
    if (spec.kind == TaskKind::kSource) {
      expected = SourceValue(spec.id, period);
    } else {
      std::vector<InputValue>& values = values_scratch_;
      values.clear();
      values.reserve(rec->claimed_inputs.size());
      for (const SignedInput& in : rec->claimed_inputs) {
        values.push_back(InputValue{in.producer, in.digest});
      }
      std::sort(values.begin(), values.end(),
                [](const InputValue& a, const InputValue& b) { return a.producer < b.producer; });
      expected = ComputeOutput(spec.id, period, values);
    }
    if (expected != rec->digest) {
      auto ev = NewPayload<EvidenceRecord>();
      ev->kind = EvidenceKind::kCommission;
      ev->declarer = id_;
      ev->period = period;
      ev->record = rec;
      ev->declarer_sig = signer_.Sign(ev->SealDigest());
      EmitEvidence(std::move(ev));
    }
  }
}

void NodeRuntime::ExecuteVerifier(const AugTask& task, uint64_t period) {
  const FaultInjection* fault = ActiveFault();
  if (fault != nullptr && fault->behavior == FaultBehavior::kEvidenceFlood) {
    // A smart flooder keeps up appearances: it still heartbeats so that
    // path-blame cannot convict it for going silent.
    if (ctx_.config.heartbeats) {
      // One immutable heartbeat payload, shared across all neighbor sends.
      auto hb = NewPayload<Heartbeat>();
      hb->from = id_;
      hb->period = period;
      hb->sig = signer_.Sign(HeartbeatDigest(id_, period));
      for (NodeId n : ctx_.topo->Neighbors(id_)) {
        ctx_.network->Send(id_, n, ctx_.config.heartbeat_bytes, TrafficClass::kControl, hb);
      }
    }
    // DoS: craft expensive-to-validate but ultimately invalid evidence.
    // The record is internally consistent (replay matches), so a validator
    // must pay the full replay cost before discovering there is nothing to
    // convict. Endorsement-abuse (if enabled) convicts us after the first.
    TaskId heavy;
    SimDuration heavy_wcet = -1;
    for (const TaskSpec& spec : ctx_.workload->tasks()) {
      if (spec.kind != TaskKind::kSource && spec.wcet > heavy_wcet) {
        heavy_wcet = spec.wcet;
        heavy = spec.id;
      }
    }
    if (!heavy.valid()) {
      return;
    }
    for (uint32_t i = 0; i < fault->flood_rate; ++i) {
      auto rec = NewPayload<OutputRecord>();
      rec->task = heavy;
      rec->replica = 0;
      rec->period = period;
      rec->sender = id_;
      std::vector<InputValue> values;
      for (const ChannelSpec& ch : ctx_.workload->Inputs(heavy)) {
        const uint64_t junk = HashCombine(period, ch.from.value() * 7919 + i);
        rec->claimed_inputs.push_back(SignedInput{
            ch.from, junk, signer_.Sign(InputContentDigest(ch.from, period, junk))});
        values.push_back(InputValue{ch.from, junk});
      }
      std::sort(values.begin(), values.end(),
                [](const InputValue& a, const InputValue& b) { return a.producer < b.producer; });
      rec->digest = ComputeOutput(heavy, period, values);
      rec->value_sig = signer_.Sign(InputContentDigest(heavy, period, rec->digest));
      rec->sender_sig = signer_.Sign(rec->SealDigest());

      auto ev = NewPayload<EvidenceRecord>();
      ev->kind = EvidenceKind::kCommission;
      ev->declarer = id_;
      ev->period = period;
      ev->record = std::move(rec);
      ev->declarer_sig = signer_.Sign(ev->SealDigest());
      BroadcastEvidence(std::move(ev), NodeId::Invalid());
    }
    return;
  }
  if (fault != nullptr && fault->behavior != FaultBehavior::kDelay &&
      fault->behavior != FaultBehavior::kValueCorruption) {
    return;  // other behaviors do not run the honest verifier
  }

  // Heartbeats to one-hop neighbors: one immutable payload, signed once,
  // shared across every neighbor send.
  if (ctx_.config.heartbeats) {
    std::shared_ptr<const Heartbeat> hb;
    for (NodeId n : ctx_.topo->Neighbors(id_)) {
      if (fault_set_.Contains(n)) {
        continue;
      }
      if (hb == nullptr) {
        auto fresh = NewPayload<Heartbeat>();
        fresh->from = id_;
        fresh->period = period;
        fresh->sig = signer_.Sign(HeartbeatDigest(id_, period));
        hb = std::move(fresh);
      }
      ctx_.network->Send(id_, n, ctx_.config.heartbeat_bytes, TrafficClass::kControl, hb);
    }
    // Check heartbeats: declare a path only after two *consecutive* missing
    // beats (transient congestion — e.g. a state transfer sharing the
    // control class right after a mode switch — must not accumulate blame),
    // and never during the post-switch quiet window.
    if (period >= 2 && period >= quiet_until_period_) {
      for (NodeId n : ctx_.topo->Neighbors(id_)) {
        if (fault_set_.Contains(n)) {
          continue;
        }
        // Short-circuit: in the common case the last beat arrived and the
        // period-2 probe never runs.
        if (!heartbeats_seen_.Contains(PackIdPeriod(n.value(), period - 1)) &&
            !heartbeats_seen_.Contains(PackIdPeriod(n.value(), period - 2))) {
          DeclarePath(n, id_, period - 1);
        }
      }
    }
  }

  // Drain the evidence queue within the verification budget, a batch at a
  // time: the declarer-signature checks of each chunk go through the
  // validator in one pass (one KeyStore call, memoized digests), which
  // amortizes the host-side crypto work. The *modeled* costs charged per
  // item are identical to per-item validation — the budget semantics
  // (the item that exhausts the budget still completes; later items and
  // pool duplicates carry over exactly as before) are bit-for-bit stable.
  SimDuration used = 0;
  const SimDuration budget = task.wcet;
  while (!evidence_queue_.empty() && used <= budget) {
    PendingEvidence items[kVerifyChunk];
    size_t m = 0;
    while (m < kVerifyChunk && !evidence_queue_.empty()) {
      items[m] = std::move(evidence_queue_.front());
      evidence_queue_.pop_front();
      ++m;
    }
    // Batch the validations of items not already pool-deduplicated.
    // Validation is pure, so pre-validating a chunk cannot reorder any
    // observable state change.
    const EvidenceRecord* batch[kVerifyChunk];
    EvidenceVerdict verdicts[kVerifyChunk];
    size_t verdict_of[kVerifyChunk];
    size_t n_batch = 0;
    for (size_t i = 0; i < m; ++i) {
      if (pool_.Contains(items[i].evidence->ContentDigest())) {
        verdict_of[i] = kVerifyChunk;  // known duplicate: skip for free below
      } else {
        batch[n_batch] = items[i].evidence.get();
        verdict_of[i] = n_batch++;
      }
    }
    validator_.ValidateBatch(batch, n_batch, verdicts);

    // Apply sequentially, with the exact per-item budget/dedup rules.
    size_t next = 0;
    for (; next < m; ++next) {
      if (used > budget) {
        break;
      }
      PendingEvidence& item = items[next];
      // Re-check the pool: an earlier item in this chunk may have inserted
      // the same content.
      if (pool_.Contains(item.evidence->ContentDigest())) {
        continue;  // duplicate: dedup is (modeled as) free
      }
      assert(verdict_of[next] < kVerifyChunk);
      const EvidenceVerdict& verdict = verdicts[verdict_of[next]];
      used += verdict.cost;
      pool_.Insert(item.evidence);
      if (verdict.valid) {
        ++stats_.evidence_validated;
        ApplyValidEvidence(*item.evidence, verdict);
        BroadcastEvidence(item.evidence, item.forwarder);
      } else {
        ++stats_.evidence_rejected;
        if (ctx_.config.endorsement_abuse && item.endorsement.signer.valid() &&
            item.endorsement.signer != id_) {
          // The forwarder vouched for garbage: that endorsement is itself
          // evidence (the paper's flooding countermeasure).
          auto abuse = NewPayload<EvidenceRecord>();
          abuse->kind = EvidenceKind::kEndorsementAbuse;
          abuse->declarer = id_;
          abuse->period = period;
          abuse->inner = item.evidence;
          abuse->endorsement_sig = item.endorsement;
          abuse->declarer_sig = signer_.Sign(abuse->SealDigest());
          EmitEvidence(std::move(abuse));
        }
      }
    }
    if (next < m) {
      // Budget exhausted mid-chunk: the unapplied tail returns to the queue
      // front, in order, exactly as if it had never been popped.
      for (size_t i = m; i > next; --i) {
        evidence_queue_.push_front(std::move(items[i - 1]));
      }
      break;
    }
  }
  stats_.verify_used += used;
  stats_.evidence_queue_peak = std::max(stats_.evidence_queue_peak, evidence_queue_.size());
}

void NodeRuntime::OnPacket(const Packet& packet) {
  if (Crashed() || plan_ == nullptr) {
    return;
  }
  // Isolation: a convicted node is excluded from the current plan but (being
  // Byzantine) may well keep executing its stale one. Nothing it originates
  // may enter our buffers — its old-plan records would otherwise win the
  // first-value-wins input race against the honest replacement primary.
  if (fault_set_.Contains(packet.src)) {
    return;
  }
  // Dispatch on the payload's kind tag (one virtual call) instead of
  // probing RTTI once per candidate type per packet.
  switch (packet.payload->kind()) {
    case PayloadKind::kOutputRecord: {
      auto record = std::static_pointer_cast<const OutputRecord>(packet.payload);
      if (fault_set_.Contains(record->sender)) {
        return;
      }
      HandleOutputRecord(packet, *record);
      const uint64_t key =
          PackTaskReplicaPeriod(record->task.value(), record->replica, record->period);
      replica_records_.InsertOrAssign(key, std::move(record));
      return;
    }
    case PayloadKind::kEvidence: {
      const auto& msg = static_cast<const EvidenceMessage&>(*packet.payload);
      // Isolation: once a node is convicted, nothing it forwards is worth
      // validating (this is what actually ends an evidence-flood DoS).
      if (fault_set_.Contains(msg.forwarder)) {
        return;
      }
      if (evidence_queue_.size() >= ctx_.config.evidence_queue_limit) {
        ++stats_.evidence_dropped_queue;
        return;
      }
      evidence_queue_.push_back(PendingEvidence{msg.evidence, msg.forwarder, msg.endorsement});
      stats_.evidence_queue_peak = std::max(stats_.evidence_queue_peak, evidence_queue_.size());
      return;
    }
    case PayloadKind::kHeartbeat: {
      const auto& hb = static_cast<const Heartbeat&>(*packet.payload);
      if (ctx_.keys->Verify(hb.sig, HeartbeatDigest(hb.from, hb.period))) {
        heartbeats_seen_.Insert(PackIdPeriod(hb.from.value(), hb.period));
      }
      return;
    }
    case PayloadKind::kStateRequest: {
      const auto& req = static_cast<const StateRequest&>(*packet.payload);
      // Serve state if this node hosts any replica of the task.
      const FaultInjection* fault = ActiveFault();
      if (fault != nullptr && fault->behavior != FaultBehavior::kDelay) {
        return;  // compromised donors do not help
      }
      const TaskSpec& spec = ctx_.workload->task(req.task);
      bool hosting = false;
      for (uint32_t rep : ctx_.graph->ReplicasOf(req.task)) {
        if (plan_->placement()[rep] == id_) {
          hosting = true;
          break;
        }
      }
      if (!hosting || spec.state_bytes == 0) {
        return;
      }
      auto transfer = NewPayload<StateTransfer>();
      transfer->task = req.task;
      transfer->new_replica = req.new_replica;
      transfer->donor = id_;
      ctx_.network->Send(id_, req.requester, spec.state_bytes, TrafficClass::kControl,
                         std::move(transfer));
      return;
    }
    case PayloadKind::kStateTransfer: {
      const auto& transfer = static_cast<const StateTransfer&>(*packet.payload);
      awaiting_state_.Erase(transfer.task.value());
      return;
    }
    case PayloadKind::kDissemBeacon:
      install_.HandleDissemBeacon(static_cast<const DissemBeaconMessage&>(*packet.payload));
      return;
    case PayloadKind::kDissemRequest:
      install_.HandleDissemRequest(static_cast<const DissemRequestMessage&>(*packet.payload));
      return;
    case PayloadKind::kDissemChunk:
      install_.HandleDissemChunk(static_cast<const DissemChunkMessage&>(*packet.payload));
      return;
    case PayloadKind::kOther:
      return;  // foreign payload (baseline protocols, tests): not ours
  }
}

void NodeRuntime::StartInstall(std::shared_ptr<const StrategyUpdate> update,
                               NodeId distributor) {
  install_.Start(std::move(update), distributor);
}

void NodeRuntime::WakeInstall() { install_.Wake(); }

void NodeRuntime::HandleOutputRecord(const Packet& packet, const OutputRecord& record) {
  if (ctx_.config.timing_checks) {
    CheckArrivalWindow(packet, record);
  }
  if (record.replica == 0 && !record.gap) {
    // First value wins; an equivocator cannot rewrite what it already sent.
    inputs_.Emplace(PackIdPeriod(record.task.value(), record.period),
                    ReceivedInput{record.digest, record.value_sig, packet.delivered_at});
  }
}

void NodeRuntime::CheckArrivalWindow(const Packet& packet, const OutputRecord& record) {
  if (current_period_ < quiet_until_period_ || pending_plan_ != nullptr) {
    return;  // windows are in flux around a mode switch
  }
  const std::vector<uint32_t>& reps = ctx_.graph->ReplicasOf(record.task);
  if (record.replica >= reps.size()) {
    return;
  }
  const uint32_t producer_aug = reps[record.replica];
  const NodeId producer_node = plan_->placement()[producer_aug];
  if (!producer_node.valid() || producer_node != record.sender || producer_node == id_) {
    return;
  }
  if (plan_->start()[producer_aug] < 0) {
    return;
  }
  const SimDuration period_len = ctx_.workload->period();
  const AugTask& producer = ctx_.graph->task(producer_aug);
  const SimTime expected_send = static_cast<SimTime>(record.period) * period_len +
                                plan_->start()[producer_aug] + producer.wcet;
  const SimDuration budget = arrival_budget_[producer_aug];
  if (budget < 0) {
    return;  // no planned edge toward this node; nothing to check against
  }
  const SimTime lo = expected_send - ctx_.config.epsilon;
  const SimTime hi = expected_send + budget + ctx_.config.epsilon;
  // The arrival is timestamped by this node's own clock; epsilon absorbs
  // the bounded residual skew.
  const SimTime observed = clock_.Read(packet.delivered_at);
  if (observed >= lo && observed <= hi) {
    return;
  }
  if (plan_->routing->HopCount(producer_node, id_) == 1) {
    // Direct link: the MAC timestamp attests the sender's lateness.
    auto ev = NewPayload<EvidenceRecord>();
    ev->kind = EvidenceKind::kTiming;
    ev->declarer = id_;
    ev->period = record.period;
    ev->record = NewPayload<OutputRecord>(record);
    ev->observed_arrival = observed;
    ev->window_lo = lo;
    ev->window_hi = hi;
    ev->declarer_sig = signer_.Sign(ev->SealDigest());
    EmitEvidence(std::move(ev));
  } else {
    // Multi-hop: a relay might be responsible; only declare the path.
    DeclarePath(producer_node, id_, record.period);
  }
}

void NodeRuntime::DeclarePath(NodeId a, NodeId b, uint64_t period) {
  const uint32_t lo = std::min(a.value(), b.value());
  const uint32_t hi = std::max(a.value(), b.value());
  if (!declared_.Insert(PackNodePairPeriod(lo, hi, period))) {
    return;
  }
  if (fault_set_.Contains(a) || fault_set_.Contains(b)) {
    return;  // already isolated; no point piling on declarations
  }
  ++stats_.path_declarations;
  BTR_LOG(kDebug, "runtime") << ToString(id_) << " declares path (" << ToString(a) << ","
                             << ToString(b) << ") period " << period;
  auto ev = NewPayload<EvidenceRecord>();
  ev->kind = EvidenceKind::kPathDeclaration;
  ev->declarer = id_;
  ev->period = period;
  ev->path_a = a;
  ev->path_b = b;
  ev->declarer_sig = signer_.Sign(ev->SealDigest());
  EmitEvidence(std::move(ev));
}

void NodeRuntime::EmitEvidence(std::shared_ptr<EvidenceRecord> evidence) {
  stats_.crypto += ctx_.config.crypto.sign_cost;
  ++stats_.evidence_generated;
  std::shared_ptr<const EvidenceRecord> ev = std::move(evidence);
  if (!pool_.Insert(ev)) {
    return;
  }
  // Apply locally. Honest nodes only emit evidence they know to be valid.
  if (ev->kind == EvidenceKind::kPathDeclaration) {
    auto convicted = blame_.AddDeclaration(
        ev->path_a, ev->path_b, ev->declarer, ev->period,
        [this](NodeId n) { return fault_set_.Contains(n); });
    if (convicted.has_value()) {
      Convict(*convicted, EvidenceKind::kPathDeclaration);
    }
  } else {
    const EvidenceVerdict verdict = validator_.Validate(*ev);
    if (verdict.valid && verdict.convicts.valid()) {
      Convict(verdict.convicts, ev->kind);
    }
  }
  BroadcastEvidence(ev, NodeId::Invalid());
}

void NodeRuntime::BroadcastEvidence(const std::shared_ptr<const EvidenceRecord>& evidence,
                                    NodeId skip_neighbor) {
  // The forwarded message is identical for every neighbor (same forwarder,
  // same endorsement), so it is built and signed once and shared. The
  // modeled signing cost was always charged once per broadcast.
  std::shared_ptr<const EvidenceMessage> msg;
  const uint32_t wire_bytes = evidence->WireBytes() + 32;
  for (NodeId n : ctx_.topo->Neighbors(id_)) {
    if (n == skip_neighbor || fault_set_.Contains(n)) {
      continue;
    }
    if (msg == nullptr) {
      auto fresh = NewPayload<EvidenceMessage>();
      fresh->evidence = evidence;
      fresh->forwarder = id_;
      fresh->endorsement = signer_.Sign(evidence->ContentDigest());
      msg = std::move(fresh);
    }
    ctx_.network->Send(id_, n, wire_bytes, TrafficClass::kEvidence, msg);
  }
  stats_.crypto += ctx_.config.crypto.sign_cost;
}

void NodeRuntime::ApplyValidEvidence(const EvidenceRecord& evidence,
                                     const EvidenceVerdict& verdict) {
  if (evidence.kind == EvidenceKind::kPathDeclaration) {
    if (fault_set_.Contains(evidence.declarer)) {
      return;  // convicted nodes get no say
    }
    auto convicted = blame_.AddDeclaration(
        evidence.path_a, evidence.path_b, evidence.declarer, evidence.period,
        [this](NodeId n) { return fault_set_.Contains(n); });
    if (convicted.has_value()) {
      Convict(*convicted, EvidenceKind::kPathDeclaration);
    }
    return;
  }
  if (verdict.convicts.valid()) {
    Convict(verdict.convicts, evidence.kind);
  }
}

void NodeRuntime::Convict(NodeId node, EvidenceKind kind) {
  if (node == id_ || !fault_set_.Add(node)) {
    return;
  }
  owner_->RecordConviction(ConvictionEvent{node, id_, ctx_.sim->Now(), kind});
  BTR_LOG(kInfo, "runtime") << ToString(id_) << " convicts " << ToString(node) << " ("
                            << EvidenceKindName(kind) << ")";
  const Plan* next = ctx_.strategy->Lookup(fault_set_);
  if (next == nullptr) {
    // Beyond f: this fault set was never planned for. Instead of freezing
    // on the stale plan, degrade to the nearest covered mode — the
    // tie-break is a pure function of the fault set, so every honest node
    // lands on the same fallback without an agreement round.
    ++degradation_.beyond_f_lookups;
    if (degradation_.degraded_since == kSimTimeNever) {
      degradation_.degraded_since = ctx_.sim->Now();
    }
    if (beyond_f_warned_.Insert(fault_set_.Hash())) {
      BTR_LOG(kWarning, "runtime")
          << ToString(id_) << ": no plan for " << fault_set_.ToString()
          << " (beyond f); falling back to nearest covered mode";
    }
    next = ctx_.strategy->LookupNearestCovered(fault_set_);
    if (next == nullptr || next == plan_ || next == pending_plan_) {
      return;  // already on (or adopting) the best covered mode
    }
    // Hysteresis: if the mode we're on (or adopting) already covers an
    // equally large subset of the observed faults, a switch buys no extra
    // coverage — and the tie-break could abandon the plan that handles the
    // genuine culprit for a same-size subset that merely sorts earlier.
    const Plan* cur = pending_plan_ != nullptr ? pending_plan_ : plan_;
    if (cur != nullptr && fault_set_.Covers(cur->faults) &&
        cur->faults.size() >= next->faults.size()) {
      return;
    }
    ++degradation_.fallback_switches;
  }
  const Plan* old_plan = pending_plan_ != nullptr ? pending_plan_ : plan_;
  pending_plan_ = next;
  RequestMigrationState(old_plan, next);
}

void NodeRuntime::AdoptPlan(const Plan* plan) {
  plan_ = plan;
  arrival_budget_.assign(ctx_.graph->size(), -1);
  if (plan_ == nullptr) {
    return;
  }
  const std::vector<AugEdge>& edges = ctx_.graph->edges();
  const std::vector<SimDuration>& budgets = plan_->edge_budget();
  if (budgets.size() != edges.size()) {
    return;  // no budgets recorded for this graph (hand-built plan)
  }
  for (size_t i = 0; i < edges.size(); ++i) {
    if (budgets[i] >= 0 && plan_->placement()[edges[i].to] == id_) {
      SimDuration& best = arrival_budget_[edges[i].from];
      best = std::max(best, budgets[i]);
    }
  }
}

void NodeRuntime::RequestMigrationState(const Plan* old_plan, const Plan* new_plan) {
  for (uint32_t aug_id = 0; aug_id < ctx_.graph->size(); ++aug_id) {
    const AugTask& task = ctx_.graph->task(aug_id);
    if (task.kind != AugKind::kWorkload || task.state_bytes == 0) {
      continue;
    }
    if (new_plan->placement()[aug_id] != id_) {
      continue;
    }
    // Did this node already hold a copy (any replica of the same task)?
    bool had_copy = false;
    NodeId donor;
    for (uint32_t rep : ctx_.graph->ReplicasOf(task.workload_task)) {
      const NodeId old_host = old_plan->placement()[rep];
      if (old_host == id_) {
        had_copy = true;
        break;
      }
      if (old_host.valid() && !fault_set_.Contains(old_host) &&
          (!donor.valid() || old_host < donor)) {
        donor = old_host;
      }
    }
    if (had_copy || !donor.valid()) {
      continue;  // state already local, or cold start
    }
    if (awaiting_state_.Contains(task.workload_task.value())) {
      continue;  // request already outstanding
    }
    awaiting_state_.Insert(task.workload_task.value());
    auto req = NewPayload<StateRequest>();
    req->task = task.workload_task;
    req->new_replica = task.replica;
    req->requester = id_;
    ctx_.network->Send(id_, donor, 32, TrafficClass::kControl, std::move(req));
  }
}

bool NodeRuntime::StateReady(TaskId task) const {
  return !awaiting_state_.Contains(task.value());
}

}  // namespace btr
