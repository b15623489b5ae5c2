#include "src/core/runtime.h"

#include <algorithm>
#include <cassert>

#include "src/common/exec_context.h"
#include "src/common/hash.h"
#include "src/common/log.h"
#include "src/core/golden.h"
#include "src/core/strategy_io.h"
#include "src/fmt/strategy_binary.h"

namespace btr {
namespace {

// XOR mask a value-corrupting adversary applies to its outputs.
constexpr uint64_t kCorruptionMask = 0xBAD0BAD0BAD0BAD0ULL;

// Buffer retention horizon, in periods.
constexpr uint64_t kBufferHorizon = 4;

// Evidence items batch-verified per verifier-loop chunk (signature checks
// for a chunk go through the KeyStore in one pass).
constexpr size_t kVerifyChunk = 8;

// Plan lookup on the recovery path: the flat O(1) index when the caller
// provided one, the strategy's own (hashed) lookup otherwise.
const Plan* LookupPlan(const RuntimeContext& ctx, const FaultSet& faults) {
  if (ctx.strategy_index != nullptr) {
    return ctx.strategy_index->Find(faults);
  }
  return ctx.strategy->Lookup(faults);
}

// Beyond-f fallback: the nearest covered mode (largest planned subset of
// `faults`, lexicographic-first tie-break — see plan.h).
const Plan* LookupNearestCoveredPlan(const RuntimeContext& ctx, const FaultSet& faults) {
  if (ctx.strategy_index != nullptr) {
    return ctx.strategy_index->FindNearestCovered(faults);
  }
  return ctx.strategy->LookupNearestCovered(faults);
}

}  // namespace

// ---------------------------------------------------------------------------
// InstallEngine
// ---------------------------------------------------------------------------

uint64_t InstallEngine::StateFingerprint() const {
  Hasher hasher;
  hasher.AddString(slice_);
  hasher.AddString(image_);
  hasher.Add(strategy_fp_);
  hasher.Add(version_);
  hasher.Add(node_.value());
  return hasher.Digest();
}

Status InstallEngine::InstallFull(const std::string& slice_text, uint64_t expected_sfp) {
  if (fmt::IsV4Image(slice_text)) {
    // Image path: verify → map → swap, no text is parsed or rendered. The
    // deep validation walks every section and body payload off to the
    // side, so a forged-count / out-of-range-reference image is rejected
    // here with the engine bit-identical (bit flips never get this far —
    // the image seal catches them at Map).
    StatusOr<fmt::BinaryStrategyView> view = fmt::BinaryStrategyView::Map(slice_text);
    if (!view.ok()) {
      ++stats_.patches_rejected;
      return view.status();
    }
    if (!view->is_slice() || view->node() != node_.value()) {
      ++stats_.patches_rejected;
      return Status::InvalidArgument("image is not this node's strategy slice");
    }
    if (view->slice_sfp() != expected_sfp) {
      ++stats_.patches_rejected;
      return Status::FailedPrecondition(
          "slice image does not chain to the expected strategy fingerprint");
    }
    const Status deep = fmt::ValidateStrategyImage(slice_text);
    if (!deep.ok()) {
      ++stats_.patches_rejected;
      return deep;
    }
    image_ = slice_text;
    slice_.clear();
    strategy_fp_ = expected_sfp;
    ++version_;
    ++stats_.full_installs;
    ++stats_.image_installs;
    return Status::Ok();
  }
  StatusOr<uint64_t> sfp = ValidateSliceText(slice_text, node_.value());
  if (!sfp.ok()) {
    ++stats_.patches_rejected;
    return sfp.status();
  }
  if (*sfp != expected_sfp) {
    ++stats_.patches_rejected;
    return Status::FailedPrecondition(
        "slice does not chain to the expected strategy fingerprint; refusing to install");
  }
  slice_ = slice_text;
  image_.clear();
  strategy_fp_ = *sfp;
  ++version_;
  ++stats_.full_installs;
  return Status::Ok();
}

Status InstallEngine::ApplyPatch(const std::string& patch_text) {
  if (!installed()) {
    ++stats_.patches_rejected;
    return Status::FailedPrecondition("no base slice installed; patch has nothing to apply to");
  }
  const bool patch_is_image = fmt::IsV4Image(patch_text);
  StatusOr<StrategyPatch> patch =
      patch_is_image ? fmt::DecodePatchImage(patch_text) : ParseStrategyPatch(patch_text);
  if (!patch.ok()) {
    ++stats_.patches_rejected;
    return patch.status();
  }
  // An image-mode base materializes its canonical text off to the side;
  // the installed image stays untouched until the patch fully verifies.
  const std::string* base = &slice_;
  std::string materialized;
  if (!image_.empty()) {
    StatusOr<std::string> text = fmt::DecodeStrategyImage(image_);
    if (!text.ok()) {
      ++stats_.patches_rejected;
      return text.status();
    }
    materialized = std::move(*text);
    base = &materialized;
  }
  // Verify-then-swap: the new slice is fully assembled and fingerprint-
  // checked before the installed state changes.
  StatusOr<std::string> applied = ApplyPatchToSlice(*base, *patch);
  if (!applied.ok()) {
    ++stats_.patches_rejected;
    return applied.status();
  }
  slice_ = std::move(*applied);
  image_.clear();
  strategy_fp_ = patch->target_fp;
  ++version_;
  ++stats_.patches_applied;
  if (patch_is_image) {
    ++stats_.image_installs;
  }
  return Status::Ok();
}

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
  const Plan* root = LookupPlan(ctx_, FaultSet());
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
        nodes_[inj.node.value()]->WakeDissem();
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
  installed_at_.assign(nodes_.size(), kSimTimeNever);
  ctx_.sim->At(at, [this, distributor]() {
    install_report_.started_at = ctx_.sim->Now();
    // The base strategy was installed out of band before deployment (the
    // paper's nodes boot with it on flash); seed the engines, no traffic.
    for (auto& node : nodes_) {
      node->EnsureBaseInstalled(*update_);
    }
    nodes_[distributor.value()]->ApplyLocalInstall(*update_);
    // No shipments yet: every node starts a Trickle agent; the
    // distributor's beacons announce the target and neighbors pull, hop by
    // hop.
    for (auto& node : nodes_) {
      node->StartGossip(distributor);
    }
  });
  return Status::Ok();
}

void BtrRuntime::NotifyInstalled(NodeId node) {
  SimTime& at = installed_at_[node.value()];
  at = std::min(at, ctx_.sim->Now());
}

const InstallRunReport& BtrRuntime::install_report() const {
  install_report_final_ = install_report_;
  if (update_ == nullptr) {
    return install_report_final_;
  }
  // Gossip counters: sums over the per-node agents, in node order — shard-
  // layout invariant by construction.
  for (const auto& node : nodes_) {
    if (const DissemAgentStats* stats = node->gossip_stats()) {
      install_report_final_.dissem.MergeFrom(*stats);
    }
  }
  install_report_final_.fallbacks += install_report_final_.dissem.fallbacks;
  install_report_final_.patch_bytes_sent += install_report_final_.dissem.patch_payload_bytes;
  install_report_final_.full_bytes_sent += install_report_final_.dissem.full_payload_bytes;
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
    const bool done = installed_at_[n] != kSimTimeNever;
    installed += done ? 1 : 0;
    if (!isolated[n]) {
      complete = complete && done;
      last = done ? std::max(last, installed_at_[n]) : last;
    }
  }
  install_report_final_.nodes_installed = installed;
  install_report_final_.completed_at = complete && last >= 0 ? last : kSimTimeNever;
  return install_report_final_;
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
      install_(id),
      blame_(ctx.config.blame_threshold, ctx.config.blame_window_periods) {
  plan_ = LookupPlan(ctx_, FaultSet());
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
    plan_ = pending_plan_;
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
      ctx_.sim->After(fault->delay, [this, to_send, dest, period]() {
        SendRecord(to_send, dest.node, dest.bytes, period);
      });
    } else {
      SendRecord(to_send, dest.node, dest.bytes, period);
    }
  }
}

void NodeRuntime::SendRecord(const std::shared_ptr<const OutputRecord>& record, NodeId to,
                             uint32_t wire_bytes, uint64_t /*period*/) {
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
    case PayloadKind::kDissemBeacon: {
      HandleDissemBeacon(packet, static_cast<const DissemBeaconMessage&>(*packet.payload));
      return;
    }
    case PayloadKind::kDissemRequest: {
      HandleDissemRequest(packet, static_cast<const DissemRequestMessage&>(*packet.payload));
      return;
    }
    case PayloadKind::kDissemChunk: {
      HandleDissemChunk(packet, static_cast<const DissemChunkMessage&>(*packet.payload));
      return;
    }
    case PayloadKind::kOther:
      return;  // foreign payload (baseline protocols, tests): not ours
  }
}

void NodeRuntime::EnsureBaseInstalled(const StrategyUpdate& update) {
  if (install_.installed()) {
    return;
  }
  const Status st = install_.InstallFull(update.base_slices[id_.value()], update.base_fp);
  if (!st.ok()) {
    BTR_LOG(kWarning, "install") << "node " << id_.value()
                              << ": base slice install failed: " << st.ToString();
  }
}

void NodeRuntime::ApplyLocalInstall(const StrategyUpdate& update) {
  if (install_.strategy_fingerprint() == update.target_fp) {
    return;
  }
  if (install_.ApplyPatch(update.patch_slices[id_.value()]).ok()) {
    owner_->NotifyInstalled(id_);
    return;
  }
  // Local fallback: the distributor carves its own full slice.
  ++owner_->install_report_.fallbacks;
  const FallbackSlice* slice = update.fallback_slice(id_.value());
  if (slice != nullptr && install_.InstallFull(slice->bytes, update.target_fp).ok()) {
    owner_->NotifyInstalled(id_);
  }
}

// ---------------------------------------------------------------------------
// Gossip dissemination (Trickle agents; see src/net/dissemination.h)
// ---------------------------------------------------------------------------

void NodeRuntime::StartGossip(NodeId distributor) {
  DissemConfig config = ctx_.config.dissem;
  if (config.beacon_period <= 0) {
    // Default beat: one workload period — beacons ride the same cadence the
    // omission detector already tolerates.
    config.beacon_period = ctx_.workload->period();
  }
  gossip_ = std::make_unique<GossipSession>(config, id_.value(), owner_->update_->target_fp);
  gossip_->relay = id_ == distributor;
  gossip_->busy_links.assign(ctx_.topo->link_count(), 0);
  gossip_->serving_to.assign(ctx_.topo->node_count(), 0);
  if (Crashed()) {
    return;  // the agent starts dormant; the heal event wakes it
  }
  gossip_->timer.Start(ctx_.sim->Now());
  ScheduleTrickle();
}

void NodeRuntime::WakeDissem() {
  if (gossip_ == nullptr || gossip_->gave_up || Crashed()) {
    return;
  }
  // Any transfer that was in flight when we went down is stale; the next
  // target beacon re-requests with the resume offset (rx keeps the
  // contiguous prefix already received).
  gossip_->pending_from = NodeId::Invalid();
  ResetTrickle();
}

const DissemAgentStats* NodeRuntime::gossip_stats() const {
  return gossip_ != nullptr ? &gossip_->stats : nullptr;
}

bool NodeRuntime::DissemSilenced() const {
  const FaultInjection* fault = ActiveFault();
  return fault != nullptr && fault->behavior != FaultBehavior::kDelay &&
         fault->behavior != FaultBehavior::kValueCorruption;
}

uint64_t NodeRuntime::DissemAnnounceFp() const { return install_.strategy_fingerprint(); }

bool NodeRuntime::DissemInstalled() const {
  return gossip_ != nullptr && install_.strategy_fingerprint() == gossip_->target_fp;
}

void NodeRuntime::ScheduleTrickle() {
  const uint32_t gen = ++gossip_->timer_generation;
  ctx_.sim->AtActor(id_.value(), gossip_->timer.fire_at(),
                    [this, gen]() { OnTrickleFire(gen); });
  ctx_.sim->AtActor(id_.value(), gossip_->timer.end_at(),
                    [this, gen]() { OnTrickleEnd(gen); });
}

void NodeRuntime::OnTrickleFire(uint32_t generation) {
  if (gossip_ == nullptr || generation != gossip_->timer_generation ||
      !gossip_->timer.running()) {
    return;
  }
  if (Crashed()) {
    gossip_->timer.Stop();  // dormant until the heal event pokes us
    return;
  }
  GossipSession& g = *gossip_;
  // Trickle suppression assumes a broadcast medium, where the neighbors that
  // miss our suppressed beacon heard the k consistent ones we heard. Beacons
  // here travel per link, so a neighbor whose only link is ours (a convoy
  // I/O leaf) may have gone dormant without hearing any: the first beacon
  // after an install is never suppressed.
  if (!g.timer.ShouldSendAtFire() && !g.announce_install) {
    ++g.stats.beacons_suppressed;
    return;
  }
  if (!DissemSilenced()) {
    SendDissemBeacon();
    g.announce_install = false;
  }
}

void NodeRuntime::OnTrickleEnd(uint32_t generation) {
  if (gossip_ == nullptr || generation != gossip_->timer_generation ||
      !gossip_->timer.running()) {
    return;
  }
  if (Crashed()) {
    gossip_->timer.Stop();
    return;
  }
  if (gossip_->timer.OnIntervalEnd(ctx_.sim->Now())) {
    ScheduleTrickle();
  }
  // else: dormant — the event stream for this agent stops here, which is
  // what lets the simulation drain after convergence.
}

void NodeRuntime::ResetTrickle() {
  if (gossip_ == nullptr || gossip_->gave_up) {
    return;
  }
  const SimTime now = ctx_.sim->Now();
  if (!gossip_->timer.running()) {
    gossip_->timer.Start(now);
    ScheduleTrickle();
  } else if (gossip_->timer.OnInconsistent(now)) {
    ScheduleTrickle();
  }
}

void NodeRuntime::SendDissemBeacon() {
  std::shared_ptr<const DissemBeaconMessage> beacon;
  for (NodeId n : ctx_.topo->Neighbors(id_)) {
    if (fault_set_.Contains(n)) {
      continue;
    }
    if (beacon == nullptr) {
      auto fresh = NewPayload<DissemBeaconMessage>();
      fresh->from = id_;
      fresh->announced_fp = DissemAnnounceFp();
      fresh->target_fp = gossip_->target_fp;
      beacon = std::move(fresh);
    }
    ctx_.network->Send(id_, n, kDissemBeaconBytes, TrafficClass::kControl, beacon);
    ++gossip_->stats.beacons_sent;
    gossip_->stats.bytes_sent += kDissemBeaconBytes;
  }
}

void NodeRuntime::HandleDissemBeacon(const Packet& packet, const DissemBeaconMessage& msg) {
  (void)packet;
  if (gossip_ == nullptr || msg.target_fp != gossip_->target_fp) {
    return;
  }
  GossipSession& g = *gossip_;
  if (msg.announced_fp == DissemAnnounceFp()) {
    g.timer.OnConsistent();
    return;
  }
  // Inconsistent neighborhood: whichever side is fresher should talk soon.
  ResetTrickle();
  g.timer.NoteActivity();
  if (msg.announced_fp == g.target_fp && !DissemInstalled() && !g.gave_up &&
      !g.pending_from.valid() && !DissemSilenced()) {
    SendDissemRequest(msg.from);
  }
}

void NodeRuntime::SendDissemRequest(NodeId to) {
  GossipSession& g = *gossip_;
  // Resume only when the partial transfer matches the artifact family we
  // would request now; otherwise restart from chunk 0.
  if (g.rx.active && DissemContentIsPatch(g.rx.content) == g.want_blob) {
    g.rx = DissemReassembly{};
  }
  auto req = NewPayload<DissemRequestMessage>();
  req->from = id_;
  req->target_fp = g.target_fp;
  req->have_chunks = g.rx.active ? g.rx.received : 0;
  req->want_blob = g.want_blob;
  ctx_.network->Send(id_, to, kDissemRequestBytes, TrafficClass::kControl, std::move(req));
  ++g.stats.requests_sent;
  g.stats.bytes_sent += kDissemRequestBytes;
  g.pending_from = to;
  g.progress_mark = g.rx.active ? g.rx.received : 0;
  const uint32_t attempt = ++g.request_attempt;
  ctx_.sim->AtActor(id_.value(), ctx_.sim->Now() + 4 * ctx_.workload->period(),
                    [this, attempt]() { CheckDissemProgress(attempt); });
}

void NodeRuntime::CheckDissemProgress(uint32_t attempt) {
  if (gossip_ == nullptr || attempt != gossip_->request_attempt) {
    return;  // superseded by a newer request
  }
  GossipSession& g = *gossip_;
  if (DissemInstalled() || !g.pending_from.valid()) {
    return;
  }
  const uint32_t received = g.rx.active ? g.rx.received : 0;
  if (received > g.progress_mark) {
    g.progress_mark = received;
    ctx_.sim->AtActor(id_.value(), ctx_.sim->Now() + 4 * ctx_.workload->period(),
                      [this, attempt]() { CheckDissemProgress(attempt); });
    return;
  }
  // Stalled (server down, chunks dropped): release the slot and rejoin the
  // conversation; the next target beacon re-requests from the resume offset.
  g.pending_from = NodeId::Invalid();
  ResetTrickle();
}

void NodeRuntime::HandleDissemRequest(const Packet& packet, const DissemRequestMessage& msg) {
  (void)packet;
  if (gossip_ == nullptr || msg.target_fp != gossip_->target_fp) {
    return;
  }
  GossipSession& g = *gossip_;
  g.timer.NoteActivity();
  if (!g.relay || !DissemInstalled() || DissemSilenced()) {
    return;  // nothing servable (or not allowed to transmit)
  }
  const uint32_t to = msg.from.value();
  if (to >= g.serving_to.size() || g.serving_to[to] != 0) {
    return;  // a transfer to this node is already queued or in flight
  }
  const LinkId link = LinkToNeighbor(msg.from);
  if (!link.valid()) {
    return;  // gossip serves one-hop neighbors only
  }
  // Leaf optimization: a single-neighbor requester can never relay, so it
  // gets only its own slice; everyone else receives the full artifact and
  // becomes a relay.
  const bool leaf = ctx_.topo->Neighbors(msg.from).size() <= 1;
  const DissemContent content =
      msg.want_blob ? (leaf ? DissemContent::kBlobSlice : DissemContent::kBlobFull)
                    : (leaf ? DissemContent::kPatchSlice : DissemContent::kPatchFull);
  g.serving_to[to] = 1;
  g.serve_queue.push_back(PendingServe{msg.from, content, msg.have_chunks, link, 0});
  MaybeServeNext();
}

LinkId NodeRuntime::LinkToNeighbor(NodeId peer) const {
  for (LinkId link : ctx_.topo->LinksAt(id_)) {
    if (ctx_.topo->Attaches(link, peer)) {
      return link;
    }
  }
  return LinkId();
}

// The relay protocol ships one full artifact per hop; what a relay serves a
// leaf is the slice it can carve deterministically from its own verified
// copy (SaveStrategyPatchSlice / ExtractSlice). Reading the carved texts off
// the shared StrategyUpdate models exactly that without holding N copies of
// identical bytes per node; a fallback slice is carved there on its first
// request.
const std::string* NodeRuntime::DissemArtifact(DissemContent content, NodeId to) const {
  const StrategyUpdate* update = owner_->update_.get();
  if (update == nullptr) {
    return nullptr;
  }
  switch (content) {
    case DissemContent::kPatchFull:
      return &update->patch_full;
    case DissemContent::kBlobFull:
      return &update->target_blob;
    case DissemContent::kPatchSlice:
      return to.value() < update->patch_slices.size() ? &update->patch_slices[to.value()]
                                                      : nullptr;
    case DissemContent::kBlobSlice: {
      const FallbackSlice* slice = update->fallback_slice(to.value());
      return slice != nullptr ? &slice->bytes : nullptr;
    }
  }
  return nullptr;
}

void NodeRuntime::MaybeServeNext() {
  if (gossip_ == nullptr) {
    return;
  }
  GossipSession& g = *gossip_;
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < g.serve_queue.size(); ++i) {
      if (g.busy_links[g.serve_queue[i].link.value()] != 0) {
        continue;
      }
      PendingServe serve = g.serve_queue[i];
      g.serve_queue.erase(g.serve_queue.begin() + static_cast<ptrdiff_t>(i));
      progress = true;
      const std::string* artifact = DissemArtifact(serve.content, serve.to);
      if ((artifact == nullptr || artifact->empty()) &&
          serve.content == DissemContent::kPatchFull) {
        // A hand-built update without the unsliced patch text: downgrade to
        // the per-node slice (the requester installs but cannot relay).
        serve.content = DissemContent::kPatchSlice;
        artifact = DissemArtifact(serve.content, serve.to);
      }
      if (artifact == nullptr || artifact->empty()) {
        g.serving_to[serve.to.value()] = 0;
        break;  // rollout torn down; drop the serve
      }
      switch (serve.content) {
        case DissemContent::kPatchFull:
          serve.content_fp = owner_->update_->patch_full_fp;
          break;
        case DissemContent::kBlobFull:
          serve.content_fp = owner_->update_->target_blob_fp;
          break;
        case DissemContent::kBlobSlice:
          serve.content_fp = owner_->update_->fallback_slice(serve.to.value())->fp;
          break;
        case DissemContent::kPatchSlice:
          serve.content_fp = FingerprintStrategyText(*artifact);
          break;
      }
      // Pace: one chunk's serialization time fits in pace_fraction of a
      // period, so a heartbeat queued behind the transfer waits far less
      // than the two consecutive periods an omission declaration needs.
      const SimDuration tx4k =
          ctx_.network->SerializationTime(serve.link, id_, TrafficClass::kControl, 4096);
      const SimDuration per_byte = std::max<SimDuration>(tx4k / 4096, 1);
      const ChunkPlan plan =
          PlanChunks(artifact->size(), per_byte, ctx_.workload->period(), g.config);
      if (serve.start_chunk >= plan.total) {
        serve.start_chunk = 0;  // the requester's resume claim predates this plan
      }
      if (serve.start_chunk > 0) {
        ++g.stats.resumes;
      }
      g.busy_links[serve.link.value()] = 1;
      SendDissemChunk(serve, serve.start_chunk, plan);
      break;  // rescan: the next queued serve may use a different link
    }
  }
}

void NodeRuntime::SendDissemChunk(PendingServe serve, uint32_t seq, ChunkPlan plan) {
  if (gossip_ == nullptr) {
    return;
  }
  GossipSession& g = *gossip_;
  const std::string* artifact = DissemArtifact(serve.content, serve.to);
  const bool done = artifact == nullptr || seq >= plan.total;
  const bool aborted = Crashed() || DissemSilenced() || fault_set_.Contains(serve.to);
  if (done || aborted) {
    g.busy_links[serve.link.value()] = 0;
    g.serving_to[serve.to.value()] = 0;
    if (done && !aborted && artifact != nullptr) {
      ++g.stats.serves;
      if (DissemContentIsPatch(serve.content)) {
        g.stats.patch_payload_bytes += artifact->size();
      } else {
        g.stats.full_payload_bytes += artifact->size();
      }
    }
    if (!Crashed()) {
      MaybeServeNext();
    }
    return;
  }
  const uint64_t total_bytes = artifact->size();
  const uint64_t offset = static_cast<uint64_t>(seq) * plan.chunk_bytes;
  const uint32_t payload =
      static_cast<uint32_t>(std::min<uint64_t>(plan.chunk_bytes, total_bytes - offset));
  const uint32_t wire = payload + kDissemChunkHeaderBytes;
  auto msg = NewPayload<DissemChunkMessage>();
  msg->from = id_;
  msg->target_fp = g.target_fp;
  msg->content = serve.content;
  msg->seq = seq;
  msg->total = plan.total;
  msg->content_fp = serve.content_fp;
  if (seq + 1 == plan.total) {
    msg->text = *artifact;  // only the final chunk carries the text
  }
  ctx_.network->Send(id_, serve.to, wire, TrafficClass::kControl, std::move(msg));
  ++g.stats.chunks_sent;
  g.stats.bytes_sent += wire;
  const SimDuration tx =
      ctx_.network->SerializationTime(serve.link, id_, TrafficClass::kControl, wire);
  ctx_.sim->AtActor(id_.value(), ctx_.sim->Now() + ChunkSpacing(tx, g.config),
                    [this, serve, seq, plan]() { SendDissemChunk(serve, seq + 1, plan); });
}

void NodeRuntime::HandleDissemChunk(const Packet& packet, const DissemChunkMessage& msg) {
  if (gossip_ == nullptr || msg.target_fp != gossip_->target_fp) {
    return;
  }
  GossipSession& g = *gossip_;
  g.timer.NoteActivity();
  install_.CountReceivedBytes(packet.size_bytes);
  if (DissemInstalled() || g.gave_up) {
    return;  // late duplicates
  }
  DissemReassembly& rx = g.rx;
  const bool matches = rx.active && rx.content == msg.content &&
                       rx.content_fp == msg.content_fp && rx.total == msg.total;
  if (!matches) {
    if (msg.seq != 0) {
      return;  // mid-stream chunk of a transfer we are not assembling
    }
    rx = DissemReassembly{};
    rx.active = true;
    rx.content = msg.content;
    rx.content_fp = msg.content_fp;
    rx.total = msg.total;
  }
  if (msg.seq != rx.received) {
    return;  // gap (a dropped chunk): the progress timeout re-requests
  }
  ++rx.received;
  if (rx.received < rx.total) {
    return;
  }
  // Final chunk carries the artifact text; content-verify before touching
  // the engine (the fingerprint chain alone cannot catch a flipped byte).
  rx = DissemReassembly{};
  g.pending_from = NodeId::Invalid();
  ApplyDissemArtifact(msg);
}

Status NodeRuntime::InstallDissemArtifact(DissemContent content, const std::string& text) {
  switch (content) {
    case DissemContent::kPatchSlice:
      return install_.ApplyPatch(text);
    case DissemContent::kPatchFull: {
      StatusOr<StrategyPatch> patch =
          fmt::IsV4Image(text) ? fmt::DecodePatchImage(text) : ParseStrategyPatch(text);
      if (!patch.ok()) {
        return patch.status();
      }
      StatusOr<std::string> sliced = SaveStrategyPatchSlice(*patch, id_.value());
      return sliced.ok() ? install_.ApplyPatch(*sliced) : sliced.status();
    }
    case DissemContent::kBlobFull: {
      // A v4 blob image decodes to canonical text before carving; the
      // carved slice installs through the text path either way.
      const std::string* blob = &text;
      std::string decoded_text;
      if (fmt::IsV4Image(text)) {
        StatusOr<std::string> decoded = fmt::DecodeStrategyImage(text);
        if (!decoded.ok()) {
          return decoded.status();
        }
        decoded_text = std::move(*decoded);
        blob = &decoded_text;
      }
      StatusOr<std::string> carved = ExtractSlice(*blob, id_.value());
      return carved.ok() ? install_.InstallFull(*carved, gossip_->target_fp) : carved.status();
    }
    case DissemContent::kBlobSlice:
      return install_.InstallFull(text, gossip_->target_fp);
  }
  return Status::InvalidArgument("unknown artifact kind");
}

void NodeRuntime::ApplyDissemArtifact(const DissemChunkMessage& msg) {
  GossipSession& g = *gossip_;
  // Content-verify before touching the engine (the fingerprint chain alone
  // cannot catch a flipped byte). The network never alters payloads, so a
  // mismatch means the served artifact itself is bad: it takes the same
  // path as one that fails to apply.
  const Status st =
      FingerprintStrategyText(msg.text) == msg.content_fp
          ? InstallDissemArtifact(msg.content, msg.text)
          : Status::InvalidArgument("artifact does not match its content fingerprint");
  if (st.ok()) {
    if (DissemContentIsFull(msg.content)) {
      g.relay = true;  // we hold a verified full artifact and can re-carve it
    }
    g.announce_install = true;
    owner_->NotifyInstalled(id_);
    // Fresh version on board: reset so the next hop hears about it quickly.
    ResetTrickle();
    return;
  }
  if (DissemContentIsPatch(msg.content)) {
    // The patch is corrupt or does not chain to our installed base: fall
    // back to the blob artifact from the same server.
    ++g.stats.fallbacks;
    g.want_blob = true;
    g.rx = DissemReassembly{};
    if (!DissemSilenced()) {
      SendDissemRequest(msg.from);
    }
    return;
  }
  // A bad blob artifact: every server ships the same bytes, so re-pulling
  // cannot help.
  BTR_LOG(kWarning, "install") << "node " << id_.value()
                            << ": gossip blob install refused: " << st.ToString();
  g.gave_up = true;
  g.timer.Stop();  // go silent so the neighborhood can go dormant
}

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
  const SimDuration budget = plan_->ArrivalBudget(*ctx_.graph, producer_aug, id_);
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
  const Plan* next = LookupPlan(ctx_, fault_set_);
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
    next = LookupNearestCoveredPlan(ctx_, fault_set_);
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

void NodeRuntime::AdoptPlan(const Plan* plan, uint64_t /*at_period*/) { pending_plan_ = plan; }

}  // namespace btr
