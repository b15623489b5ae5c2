#include "src/core/install_agent.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/common/log.h"
#include "src/core/runtime.h"
#include "src/fmt/strategy_binary.h"

namespace btr {

// ---------------------------------------------------------------------------
// InstallEngine
// ---------------------------------------------------------------------------

uint64_t InstallEngine::StateFingerprint() const {
  Hasher hasher;
  hasher.AddString(slice_);
  hasher.Add(strategy_fp_);
  hasher.Add(version_);
  hasher.Add(node_.value());
  return hasher.Digest();
}

Status InstallEngine::InstallFull(std::string slice, uint64_t expected_sfp) {
  const StatusOr<uint64_t> sfp = ValidateSliceText(slice, node_.value());
  if (!sfp.ok()) {
    ++stats_.patches_rejected;
    return sfp.status();
  }
  if (*sfp != expected_sfp) {
    ++stats_.patches_rejected;
    return Status::FailedPrecondition(
        "slice does not chain to the expected strategy fingerprint; refusing to install");
  }
  slice_ = std::move(slice);
  strategy_fp_ = *sfp;
  ++version_;
  ++stats_.full_installs;
  return Status::Ok();
}

Status InstallEngine::ApplyPatch(const StrategyPatch& patch) {
  if (!installed()) {
    ++stats_.patches_rejected;
    return Status::FailedPrecondition("no base slice installed; patch has nothing to apply to");
  }
  // Verify-then-swap: the new slice is fully assembled and fingerprint-
  // checked before the installed state changes.
  StatusOr<std::string> applied = ApplyPatchToSlice(slice_, patch);
  if (!applied.ok()) {
    ++stats_.patches_rejected;
    return applied.status();
  }
  slice_ = std::move(*applied);
  strategy_fp_ = patch.target_fp;
  ++version_;
  ++stats_.patches_applied;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// InstallAgent: Trickle gossip (see src/net/dissemination.h)
// ---------------------------------------------------------------------------

InstallAgent::InstallAgent(const RuntimeContext& ctx, NodeId id, const FaultSet& convicted,
                           std::shared_ptr<BlockPool> arena)
    : ctx_(ctx), id_(id), convicted_(convicted), arena_(std::move(arena)), engine_(id) {}

void InstallAgent::Start(std::shared_ptr<const StrategyUpdate> update, NodeId distributor) {
  update_ = std::move(update);
  installed_at_ = kSimTimeNever;
  EnsureBaseInstalled();
  if (id_ == distributor) {
    ApplyLocalInstall();
  }
  StartGossip(distributor);
}

void InstallAgent::Wake() {
  if (gossip_ == nullptr || gossip_->gave_up || Crashed()) {
    return;
  }
  // Any transfer that was in flight when we went down is stale; the next
  // target beacon re-requests with the resume offset (rx keeps the
  // contiguous prefix already received).
  gossip_->pending_from = NodeId::Invalid();
  ResetTrickle();
}

const DissemAgentStats* InstallAgent::gossip_stats() const {
  return gossip_ != nullptr ? &gossip_->stats : nullptr;
}

// The base strategy was installed out of band before deployment (the
// paper's nodes boot with it on flash): seed the engine, no traffic.
void InstallAgent::EnsureBaseInstalled() {
  if (engine_.installed()) {
    return;
  }
  const Status st = engine_.InstallFull(update_->base_slices[id_.value()], update_->base_fp);
  if (!st.ok()) {
    BTR_LOG(kWarning, "install") << "node " << id_.value()
                              << ": base slice install failed: " << st.ToString();
  }
}

void InstallAgent::ApplyLocalInstall() {
  if (engine_.strategy_fingerprint() == update_->target_fp) {
    return;
  }
  const WireArtifact* patch = update_->patch_slice(id_.value());
  if (patch != nullptr && InstallDissemArtifact(DissemContent::kPatchSlice, patch->bytes).ok()) {
    NoteInstalled();
    return;
  }
  // Local fallback: the distributor carves its own full slice.
  ++local_fallbacks_;
  const WireArtifact* slice = update_->fallback_slice(id_.value());
  if (slice != nullptr && InstallDissemArtifact(DissemContent::kBlobSlice, slice->bytes).ok()) {
    NoteInstalled();
  }
}

void InstallAgent::NoteInstalled() { installed_at_ = std::min(installed_at_, ctx_.sim->Now()); }

void InstallAgent::StartGossip(NodeId distributor) {
  DissemConfig config = ctx_.config.dissem;
  if (config.beacon_period <= 0) {
    // Default beat: one workload period — beacons ride the same cadence the
    // omission detector already tolerates.
    config.beacon_period = ctx_.workload->period();
  }
  gossip_ = std::make_unique<GossipSession>(config, id_.value(), update_->target_fp);
  gossip_->relay = id_ == distributor;
  gossip_->busy_links.assign(ctx_.topo->link_count(), 0);
  gossip_->serving_to.assign(ctx_.topo->node_count(), 0);
  if (Crashed()) {
    return;  // the agent starts dormant; the heal event wakes it
  }
  gossip_->timer.Start(ctx_.sim->Now());
  ScheduleTrickle();
}

bool InstallAgent::Crashed() const {
  const FaultInjection* fault = ctx_.adversary->ActiveOn(id_, ctx_.sim->Now());
  return fault != nullptr && fault->behavior == FaultBehavior::kCrash;
}

bool InstallAgent::DissemSilenced() const {
  const FaultInjection* fault = ctx_.adversary->ActiveOn(id_, ctx_.sim->Now());
  return fault != nullptr && fault->behavior != FaultBehavior::kDelay &&
         fault->behavior != FaultBehavior::kValueCorruption;
}

uint64_t InstallAgent::DissemAnnounceFp() const { return engine_.strategy_fingerprint(); }

bool InstallAgent::DissemInstalled() const {
  return gossip_ != nullptr && engine_.strategy_fingerprint() == gossip_->target_fp;
}

void InstallAgent::ScheduleTrickle() {
  const uint32_t gen = ++gossip_->timer_generation;
  ctx_.sim->AtActor(id_.value(), gossip_->timer.fire_at(),
                    [this, gen]() { OnTrickleFire(gen); });
  ctx_.sim->AtActor(id_.value(), gossip_->timer.end_at(),
                    [this, gen]() { OnTrickleEnd(gen); });
}

void InstallAgent::OnTrickleFire(uint32_t generation) {
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

void InstallAgent::OnTrickleEnd(uint32_t generation) {
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

void InstallAgent::ResetTrickle() {
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

void InstallAgent::SendDissemBeacon() {
  std::shared_ptr<const DissemBeaconMessage> beacon;
  for (NodeId n : ctx_.topo->Neighbors(id_)) {
    if (convicted_.Contains(n)) {
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

void InstallAgent::HandleDissemBeacon(const DissemBeaconMessage& msg) {
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

void InstallAgent::SendDissemRequest(NodeId to) {
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

void InstallAgent::CheckDissemProgress(uint32_t attempt) {
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

void InstallAgent::HandleDissemRequest(const DissemRequestMessage& msg) {
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

LinkId InstallAgent::LinkToNeighbor(NodeId peer) const {
  for (LinkId link : ctx_.topo->LinksAt(id_)) {
    if (ctx_.topo->Attaches(link, peer)) {
      return link;
    }
  }
  return LinkId();
}

// The relay protocol ships one full artifact per hop; what a relay serves a
// leaf is the slice it can carve deterministically from its own verified
// copy (MakeStrategyPatchSlice / ExtractSlice, then the v4 encoding).
// Reading the artifacts off the shared StrategyUpdate models exactly that
// without holding N copies of identical bytes per node. Only the unsliced
// patch is built with the update; a patch slice, a fallback slice or the
// blob is built there on its first request, so a rollout pays for the
// artifacts it ships.
const WireArtifact* InstallAgent::DissemArtifact(DissemContent content, NodeId to) const {
  const StrategyUpdate* update = update_.get();
  if (update == nullptr) {
    return nullptr;
  }
  switch (content) {
    case DissemContent::kPatchFull:
      return &update->patch_full;
    case DissemContent::kBlobFull:
      return update->blob_artifact();
    case DissemContent::kPatchSlice:
      return update->patch_slice(to.value());
    case DissemContent::kBlobSlice:
      return update->fallback_slice(to.value());
  }
  return nullptr;
}

void InstallAgent::MaybeServeNext() {
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
      const WireArtifact* artifact = DissemArtifact(serve.content, serve.to);
      if (artifact == nullptr || artifact->bytes.empty()) {
        g.serving_to[serve.to.value()] = 0;
        break;  // rollout torn down; drop the serve
      }
      serve.content_fp = artifact->fp;
      // Pace: one chunk's serialization time fits in pace_fraction of a
      // period, so a heartbeat queued behind the transfer waits far less
      // than the two consecutive periods an omission declaration needs.
      const SimDuration tx4k =
          ctx_.network->SerializationTime(serve.link, id_, TrafficClass::kControl, 4096);
      const SimDuration per_byte = std::max<SimDuration>(tx4k / 4096, 1);
      const ChunkPlan plan =
          PlanChunks(artifact->bytes.size(), per_byte, ctx_.workload->period(), g.config);
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

void InstallAgent::SendDissemChunk(PendingServe serve, uint32_t seq, ChunkPlan plan) {
  if (gossip_ == nullptr) {
    return;
  }
  GossipSession& g = *gossip_;
  const WireArtifact* artifact = DissemArtifact(serve.content, serve.to);
  const bool done = artifact == nullptr || seq >= plan.total;
  const bool aborted = Crashed() || DissemSilenced() || convicted_.Contains(serve.to);
  if (done || aborted) {
    g.busy_links[serve.link.value()] = 0;
    g.serving_to[serve.to.value()] = 0;
    if (done && !aborted && artifact != nullptr) {
      ++g.stats.serves;
      if (DissemContentIsPatch(serve.content)) {
        g.stats.patch_payload_bytes += artifact->bytes.size();
      } else {
        g.stats.full_payload_bytes += artifact->bytes.size();
      }
    }
    if (!Crashed()) {
      MaybeServeNext();
    }
    return;
  }
  const uint64_t total_bytes = artifact->bytes.size();
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
    msg->image = artifact->bytes;  // only the final chunk carries the image
  }
  ctx_.network->Send(id_, serve.to, wire, TrafficClass::kControl, std::move(msg));
  ++g.stats.chunks_sent;
  g.stats.bytes_sent += wire;
  const SimDuration tx =
      ctx_.network->SerializationTime(serve.link, id_, TrafficClass::kControl, wire);
  ctx_.sim->AtActor(id_.value(), ctx_.sim->Now() + ChunkSpacing(tx, g.config),
                    [this, serve, seq, plan]() { SendDissemChunk(serve, seq + 1, plan); });
}

void InstallAgent::HandleDissemChunk(const Packet& packet, const DissemChunkMessage& msg) {
  if (gossip_ == nullptr || msg.target_fp != gossip_->target_fp) {
    return;
  }
  GossipSession& g = *gossip_;
  g.timer.NoteActivity();
  engine_.CountReceivedBytes(packet.size_bytes);
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
  // Final chunk carries the artifact image; content-verify before touching
  // the engine (the fingerprint chain alone cannot catch a flipped byte).
  rx = DissemReassembly{};
  g.pending_from = NodeId::Invalid();
  ApplyDissemArtifact(msg);
}

Status InstallAgent::InstallDissemArtifact(DissemContent content, const std::string& image) {
  switch (content) {
    case DissemContent::kPatchSlice: {
      StatusOr<StrategyPatch> patch = fmt::DecodePatchImage(image);
      return patch.ok() ? engine_.ApplyPatch(*patch) : patch.status();
    }
    case DissemContent::kPatchFull: {
      // The relay keeps the full artifact to re-serve and installs its own
      // slice of the patch it just decoded, in memory.
      StatusOr<StrategyPatch> patch = fmt::DecodePatchImage(image);
      if (!patch.ok()) {
        return patch.status();
      }
      StatusOr<StrategyPatch> sliced = MakeStrategyPatchSlice(*patch, id_.value());
      return sliced.ok() ? engine_.ApplyPatch(*sliced) : sliced.status();
    }
    case DissemContent::kBlobFull: {
      StatusOr<std::string> blob = fmt::DecodeStrategyImage(image);
      if (!blob.ok()) {
        return blob.status();
      }
      StatusOr<std::string> carved = ExtractSlice(*blob, id_.value());
      return carved.ok() ? engine_.InstallFull(std::move(*carved), update_->target_fp)
                         : carved.status();
    }
    case DissemContent::kBlobSlice: {
      StatusOr<std::string> slice = fmt::DecodeStrategyImage(image);
      return slice.ok() ? engine_.InstallFull(std::move(*slice), update_->target_fp)
                        : slice.status();
    }
  }
  return Status::InvalidArgument("unknown artifact kind");
}

void InstallAgent::ApplyDissemArtifact(const DissemChunkMessage& msg) {
  GossipSession& g = *gossip_;
  // Content-verify before touching the engine (the fingerprint chain alone
  // cannot catch a flipped byte). The network never alters payloads, so a
  // mismatch means the served artifact itself is bad: it takes the same
  // path as one that fails to apply.
  const Status st =
      FingerprintStrategyText(msg.image) == msg.content_fp
          ? InstallDissemArtifact(msg.content, msg.image)
          : Status::InvalidArgument("artifact does not match its content fingerprint");
  if (st.ok()) {
    if (DissemContentIsFull(msg.content)) {
      g.relay = true;  // we hold a verified full artifact and can re-carve it
    }
    g.announce_install = true;
    NoteInstalled();
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

}  // namespace btr
