#include "src/spec/experiment_spec.h"

#include <algorithm>
#include <string_view>

#include "src/core/strategy_text_internal.h"

namespace btr {
namespace {

using strategy_text::ParseU64;
using strategy_text::SplitFields;

// --- serialization ---------------------------------------------------------

std::string Us(SimDuration ns) { return std::to_string(ns / 1000); }

std::string JoinU32(const std::vector<uint32_t>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(values[i]);
  }
  return out;
}

void AppendTaskAttrs(std::string* out, TaskKind kind, SimDuration wcet, Criticality crit,
                     uint32_t state_bytes, uint32_t pinned_node, SimDuration deadline,
                     const char* kind_key) {
  *out += ' ';
  *out += kind_key;
  *out += '=';
  *out += TaskKindName(kind);
  *out += " wcet-us=" + Us(wcet);
  *out += " crit=";
  *out += CriticalityName(crit);
  if (kind == TaskKind::kCompute) {
    *out += " state=" + std::to_string(state_bytes);
  } else {
    *out += " node=" + std::to_string(pinned_node);
  }
  if (kind == TaskKind::kSink) {
    *out += " deadline-us=" + Us(deadline);
  }
}

bool RadioKind(SpecScenario::Kind kind) {
  return kind == SpecScenario::Kind::kConvoyMobile ||
         kind == SpecScenario::Kind::kLossyMesh;
}

void AppendRadioAttrs(std::string* out, uint32_t loss_pm, SimDuration duty_on,
                      SimDuration duty_period) {
  if (loss_pm != 0) {
    *out += " loss-pm=" + std::to_string(loss_pm);
  }
  if (duty_period != 0) {
    *out += " duty-on-us=" + Us(duty_on);
    *out += " duty-period-us=" + Us(duty_period);
  }
}

void AppendScenario(std::string* out, const SpecScenario& s) {
  *out += "SCENARIO ";
  *out += ScenarioKindName(s.kind);
  *out += " nodes=" + std::to_string(s.nodes);
  if (RadioKind(s.kind)) {
    AppendRadioAttrs(out, s.loss_pm, s.duty_on, s.duty_period);
  }
  if (s.kind == SpecScenario::Kind::kRandom) {
    if (s.scenario_seed != 1) {
      *out += " scenario-seed=" + std::to_string(s.scenario_seed);
    }
    if (s.layers != 0) {
      *out += " layers=" + std::to_string(s.layers);
    }
    if (s.tasks_per_layer != 0) {
      *out += " tasks-per-layer=" + std::to_string(s.tasks_per_layer);
    }
    if (s.random_period != 0) {
      *out += " period-us=" + Us(s.random_period);
    }
  }
  if (s.kind == SpecScenario::Kind::kInline) {
    *out += " period-us=" + Us(s.period);
  }
  *out += '\n';
  if (s.kind != SpecScenario::Kind::kInline) {
    return;
  }
  for (const SpecScenario::Link& link : s.links) {
    *out += "LINK name=" + link.name + " nodes=" + JoinU32(link.nodes) +
            " bw-bps=" + std::to_string(link.bandwidth_bps) +
            " prop-us=" + Us(link.propagation);
    AppendRadioAttrs(out, link.loss_pm, link.duty_on, link.duty_period);
    *out += '\n';
  }
  for (const SpecScenario::Task& task : s.tasks) {
    *out += "TASK name=" + task.name;
    AppendTaskAttrs(out, task.kind, task.wcet, task.criticality, task.state_bytes,
                    task.pinned_node, task.deadline, "kind");
    *out += '\n';
  }
  for (const SpecScenario::Flow& flow : s.flows) {
    *out += "FLOW from=" + flow.from + " to=" + flow.to +
            " bytes=" + std::to_string(flow.bytes) + '\n';
  }
}

void AppendFault(std::string* out, const SpecFault& fault) {
  const FaultInjection& inj = fault.injection;
  *out += "FAULT node=";
  if (fault.critical_primary) {
    *out += "critical-primary";
  } else {
    *out += std::to_string(inj.node.value());
  }
  *out += " at-us=" + Us(inj.manifest_at);
  *out += " behavior=";
  *out += FaultBehaviorName(inj.behavior);
  if (inj.until != kSimTimeNever) {
    *out += " until-us=" + Us(inj.until);
  }
  if (inj.behavior == FaultBehavior::kDelay) {
    *out += " delay-us=" + Us(inj.delay);
  }
  if (inj.behavior == FaultBehavior::kSelectiveOmission && inj.target.valid()) {
    *out += " target=" + std::to_string(inj.target.value());
  }
  if (inj.behavior == FaultBehavior::kEvidenceFlood) {
    *out += " flood=" + std::to_string(inj.flood_rate);
  }
  *out += '\n';
}

void AppendEdit(std::string* out, SimTime at, const DeltaEdit& e) {
  *out += "EDIT at-us=" + Us(at) + " kind=";
  *out += DeltaKindName(e.kind);
  switch (e.kind) {
    case DeltaKind::kLinkAdd: {
      std::vector<uint32_t> nodes;
      for (NodeId n : e.endpoints) {
        nodes.push_back(n.value());
      }
      *out += " link=" + e.link_name + " nodes=" + JoinU32(nodes) +
              " bw-bps=" + std::to_string(e.bandwidth_bps) +
              " prop-us=" + Us(e.propagation);
      break;
    }
    case DeltaKind::kLinkRemove:
      *out += " link=" + e.link_name;
      break;
    case DeltaKind::kLinkLatencyChange:
      *out += " link=" + e.link_name;
      if (e.bandwidth_bps > 0) {
        *out += " bw-bps=" + std::to_string(e.bandwidth_bps);
      }
      if (e.propagation >= 0) {
        *out += " prop-us=" + Us(e.propagation);
      }
      break;
    case DeltaKind::kTaskAdd: {
      *out += " name=" + e.task.name;
      AppendTaskAttrs(out, e.task.kind, e.task.wcet, e.task.criticality, e.task.state_bytes,
                      e.task.pinned_node.valid() ? e.task.pinned_node.value() : 0,
                      e.task.relative_deadline, "task-kind");
      for (const DeltaChannel& c : e.channels) {
        *out += " chan=" + c.from + ':' + c.to + ':' + std::to_string(c.message_bytes);
      }
      break;
    }
    case DeltaKind::kTaskRemove:
      *out += " name=" + e.task_name;
      break;
    case DeltaKind::kTaskReweight:
      *out += " name=" + e.task_name + " crit=";
      *out += CriticalityName(e.criticality);
      break;
  }
  *out += '\n';
}

// --- parsing ---------------------------------------------------------------

Status LineError(size_t line_no, const std::string& message) {
  return Status::InvalidArgument("line " + std::to_string(line_no) + ": " + message);
}

// key=value splitter; false if no '=' or empty key/value.
bool SplitKeyValue(std::string_view field, std::string_view* key, std::string_view* value) {
  const size_t eq = field.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 1 >= field.size()) {
    return false;
  }
  *key = field.substr(0, eq);
  *value = field.substr(eq + 1);
  return true;
}

// A spec name token: used for experiment, link, and task names, which the
// record syntax embeds in key=value fields and chan=from:to:bytes triples.
bool ValidNameToken(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) {
      return false;
    }
  }
  return true;
}

bool ParseDurationUs(std::string_view value, SimDuration* out) {
  uint64_t us = 0;
  if (!ParseU64(value, &us) || us > kMaxSpecUs) {
    return false;
  }
  *out = static_cast<SimDuration>(us) * 1000;
  return true;
}

bool ParseU32Field(std::string_view value, uint32_t* out) {
  uint64_t v = 0;
  if (!ParseU64(value, &v) || v > UINT32_MAX) {
    return false;
  }
  *out = static_cast<uint32_t>(v);
  return true;
}

// Comma-separated canonical u32 list, at least one element.
bool ParseU32List(std::string_view value, std::vector<uint32_t>* out) {
  out->clear();
  size_t start = 0;
  while (true) {
    const size_t comma = value.find(',', start);
    const std::string_view item = comma == std::string_view::npos
                                      ? value.substr(start)
                                      : value.substr(start, comma - start);
    uint32_t v = 0;
    if (!ParseU32Field(item, &v)) {
      return false;
    }
    out->push_back(v);
    if (comma == std::string_view::npos) {
      return true;
    }
    start = comma + 1;
  }
}

// Tracks which keys a record consumed, so unknown and duplicate keys are
// both hard errors (forged or stuttered fields read as corruption).
class KeyValues {
 public:
  Status Load(const std::vector<std::string_view>& fields, size_t first, size_t line_no) {
    for (size_t i = first; i < fields.size(); ++i) {
      std::string_view key;
      std::string_view value;
      if (!SplitKeyValue(fields[i], &key, &value)) {
        return LineError(line_no, "malformed field '" + std::string(fields[i]) +
                                      "' (expected key=value)");
      }
      for (const auto& [k, v] : entries_) {
        if (k == key) {
          return LineError(line_no, "duplicate key '" + std::string(key) + "'");
        }
      }
      entries_.emplace_back(key, value);
    }
    return Status::Ok();
  }

  bool Take(std::string_view key, std::string_view* value) {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].first == key) {
        *value = entries_[i].second;
        entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  // Error unless every key was consumed.
  Status Done(size_t line_no) const {
    if (entries_.empty()) {
      return Status::Ok();
    }
    return LineError(line_no, "unknown key '" + std::string(entries_[0].first) + "'");
  }

 private:
  std::vector<std::pair<std::string_view, std::string_view>> entries_;
};

// Takes `number.key` from `kv` and reads it through `number`.
Status TakeNumber(KeyValues* kv, const SpecNumber& number, size_t line_no, uint64_t* out) {
  std::string_view value;
  if (!kv->Take(number.key, &value)) {
    return LineError(line_no, "missing " + std::string(number.key) + "=");
  }
  const Status parsed = number.Parse(value, out);
  return parsed.ok() ? parsed : LineError(line_no, parsed.message());
}

// As TakeNumber, for a key in microseconds.
Status TakeDurationUs(KeyValues* kv, const SpecNumber& number, size_t line_no,
                      SimDuration* out) {
  uint64_t us = 0;
  Status taken = TakeNumber(kv, number, line_no, &us);
  if (taken.ok()) {
    *out = static_cast<SimDuration>(us) * 1000;
  }
  return taken;
}

// Repeated keys that KeyValues rejects (chan=...) are pre-extracted here.
void ExtractRepeated(std::vector<std::string_view>* fields, std::string_view key,
                     std::vector<std::string_view>* out) {
  const std::string prefix = std::string(key) + "=";
  auto it = fields->begin();
  while (it != fields->end()) {
    if (it->size() > prefix.size() && it->substr(0, prefix.size()) == prefix) {
      out->push_back(it->substr(prefix.size()));
      it = fields->erase(it);
    } else {
      ++it;
    }
  }
}

// Shared by SCENARIO records (radio kinds) and inline LINK records: the
// optional loss-pm= / duty-on-us= / duty-period-us= radio-dynamics keys,
// with the same presence rules the serializer follows.
Status ParseRadioAttrs(KeyValues* kv, size_t line_no, uint32_t* loss_pm,
                       SimDuration* duty_on, SimDuration* duty_period) {
  std::string_view value;
  if (kv->Take("loss-pm", &value)) {
    uint64_t pm = 0;
    // 0 would serialize as an absent key; 1000 per-mille is a link that
    // never delivers, which Topology::Validate rejects.
    if (!ParseU64(value, &pm) || pm == 0 || pm >= 1000) {
      return LineError(line_no, "loss-pm= must be in [1, 999]");
    }
    *loss_pm = static_cast<uint32_t>(pm);
  }
  SimDuration on = 0;
  const bool has_on = kv->Take("duty-on-us", &value);
  if (has_on && (!ParseDurationUs(value, &on) || on == 0)) {
    return LineError(line_no, "malformed duty-on-us=");
  }
  SimDuration period = 0;
  const bool has_period = kv->Take("duty-period-us", &value);
  if (has_period && (!ParseDurationUs(value, &period) || period == 0)) {
    return LineError(line_no, "malformed duty-period-us=");
  }
  if (has_on != has_period) {
    return LineError(line_no, "duty-on-us= and duty-period-us= come as a pair");
  }
  if (has_on) {
    if (on > period) {
      return LineError(line_no, "duty-on-us= must not exceed duty-period-us=");
    }
    *duty_on = on;
    *duty_period = period;
  }
  return Status::Ok();
}

struct TaskAttrs {
  TaskKind kind = TaskKind::kCompute;
  SimDuration wcet = 0;
  Criticality criticality = Criticality::kMedium;
  uint32_t state_bytes = 0;
  bool has_node = false;
  uint32_t node = 0;
  bool has_deadline = false;
  SimDuration deadline = 0;
};

// Shared by TASK records and task-add edits: kind/wcet/crit plus the
// kind-dependent state / node / deadline fields, with the same presence
// rules the serializer follows.
Status ParseTaskAttrs(KeyValues* kv, size_t line_no, const char* kind_key, TaskAttrs* out) {
  std::string_view value;
  if (!kv->Take(kind_key, &value)) {
    return LineError(line_no, std::string("missing ") + kind_key + "=");
  }
  const auto kind = ParseTaskKind(value);
  if (!kind.has_value()) {
    return LineError(line_no, "unknown task kind '" + std::string(value) + "'");
  }
  out->kind = *kind;
  if (!kv->Take("wcet-us", &value) || !ParseDurationUs(value, &out->wcet)) {
    return LineError(line_no, "missing or malformed wcet-us=");
  }
  if (!kv->Take("crit", &value)) {
    return LineError(line_no, "missing crit=");
  }
  const auto crit = ParseCriticality(value);
  if (!crit.has_value()) {
    return LineError(line_no, "unknown criticality '" + std::string(value) + "'");
  }
  out->criticality = *crit;
  if (kv->Take("state", &value)) {
    if (out->kind != TaskKind::kCompute) {
      return LineError(line_no, "state= is only valid for compute tasks");
    }
    if (!ParseU32Field(value, &out->state_bytes)) {
      return LineError(line_no, "malformed state=");
    }
  }
  if (kv->Take("node", &value)) {
    if (out->kind == TaskKind::kCompute) {
      return LineError(line_no, "node= is only valid for pinned source/sink tasks");
    }
    if (!ParseU32Field(value, &out->node)) {
      return LineError(line_no, "malformed node=");
    }
    out->has_node = true;
  }
  if (kv->Take("deadline-us", &value)) {
    if (out->kind != TaskKind::kSink) {
      return LineError(line_no, "deadline-us= is only valid for sink tasks");
    }
    if (!ParseDurationUs(value, &out->deadline)) {
      return LineError(line_no, "malformed deadline-us=");
    }
    out->has_deadline = true;
  }
  if (out->kind != TaskKind::kCompute && !out->has_node) {
    return LineError(line_no, "source/sink tasks require node=");
  }
  if (out->kind == TaskKind::kSink && !out->has_deadline) {
    return LineError(line_no, "sink tasks require deadline-us=");
  }
  return Status::Ok();
}

// Parser state machine: canonical section order is enforced, so a record
// in the wrong place reads as corruption, not as a reordering.
enum class Section {
  kHeader,    // expecting BTRX
  kName,      // expecting NAME
  kScenario,  // expecting SCENARIO
  kInline,    // LINK / TASK / FLOW / CONFIG
  kConfig,    // expecting CONFIG
  kSweeps,    // SWEEP / PHASE
  kPhases,    // FAULT / EDIT / PHASE / END
  kDone,      // nothing after END
};

}  // namespace

const char* ScenarioKindName(SpecScenario::Kind kind) {
  switch (kind) {
    case SpecScenario::Kind::kAvionics:
      return "avionics";
    case SpecScenario::Kind::kScada:
      return "scada";
    case SpecScenario::Kind::kConvoy:
      return "convoy";
    case SpecScenario::Kind::kRandom:
      return "random";
    case SpecScenario::Kind::kInline:
      return "inline";
    case SpecScenario::Kind::kConvoyMobile:
      return "convoy-mobile";
    case SpecScenario::Kind::kLossyMesh:
      return "lossy-mesh";
  }
  return "?";
}

std::optional<SpecScenario::Kind> ParseScenarioKind(std::string_view name) {
  for (int i = 0; i < SpecScenario::kKindCount; ++i) {
    const auto kind = static_cast<SpecScenario::Kind>(i);
    if (name == ScenarioKindName(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

namespace {

Status OutOfBounds(const SpecNumber& number) {
  return Status::InvalidArgument(std::string(number.key) + "= must be in [" +
                                 std::to_string(number.lo) + ", " + std::to_string(number.hi) +
                                 "]");
}

}  // namespace

Status SpecNumber::Check(uint64_t value) const {
  return value >= lo && value <= hi ? Status::Ok() : OutOfBounds(*this);
}

Status SpecNumber::Parse(std::string_view value, uint64_t* out, uint64_t scale) const {
  uint64_t parsed = 0;
  if (!ParseU64(value, &parsed) || parsed > UINT64_MAX / scale) {
    return OutOfBounds(*this);
  }
  Status checked = Check(parsed * scale);
  if (checked.ok()) {
    *out = parsed * scale;
  }
  return checked;
}

std::string SerializeSpecScenario(const SpecScenario& scenario) {
  std::string out;
  out.reserve(256);
  AppendScenario(&out, scenario);
  return out;
}

std::string SerializeExperimentSpec(const ExperimentSpec& spec) {
  std::string out;
  out.reserve(512);
  out += "BTRX 1\n";
  out += "NAME " + spec.name + '\n';
  AppendScenario(&out, spec.scenario);
  out += "CONFIG f=" + std::to_string(spec.max_faults) +
         " recovery-us=" + Us(spec.recovery_bound) + " seed=" + std::to_string(spec.seed);
  if (!spec.heartbeats) {
    out += " heartbeats=0";
  }
  if (spec.shards != 0) {
    out += " shards=" + std::to_string(spec.shards);
  }
  out += '\n';
  for (const SweepAxis& axis : spec.sweeps) {
    out += "SWEEP " + axis.key;
    for (uint64_t v : axis.values) {
      out += ' ';
      out += std::to_string(v);
    }
    out += '\n';
  }
  for (const SpecPhase& phase : spec.phases) {
    out += "PHASE periods=" + std::to_string(phase.periods) + '\n';
    for (const SpecFault& fault : phase.faults) {
      AppendFault(&out, fault);
    }
    if (phase.has_edit()) {
      for (const DeltaEdit& e : phase.edit.edits) {
        AppendEdit(&out, phase.edit_at, e);
      }
    }
  }
  out += "END\n";
  return out;
}

StatusOr<ExperimentSpec> ParseExperimentSpec(const std::string& text) {
  ExperimentSpec spec;
  spec.name.clear();
  Section section = Section::kHeader;
  size_t line_no = 0;
  size_t pos = 0;
  std::vector<std::string_view> fields;
  const std::string_view all(text);

  // Inline-scenario bookkeeping for reference validation.
  std::vector<std::string> task_names;
  auto known_task = [&task_names](std::string_view name) {
    return std::find(task_names.begin(), task_names.end(), name) != task_names.end();
  };

  while (pos < text.size()) {
    ++line_no;
    size_t nl = all.find('\n', pos);
    const bool terminated = nl != std::string_view::npos;
    std::string_view line = all.substr(pos, (terminated ? nl : text.size()) - pos);
    pos = terminated ? nl + 1 : text.size();

    // Hand-authoring affordances: blank lines, comments, indentation.
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string_view::npos || line[first] == '#') {
      continue;
    }
    size_t last = line.find_last_not_of(" \t\r");
    line = line.substr(first, last - first + 1);
    if (!terminated) {
      return LineError(line_no, "truncated: last line is not newline-terminated");
    }
    if (section == Section::kDone) {
      return LineError(line_no, "unexpected record after END");
    }
    if (!SplitFields(line, &fields)) {
      return LineError(line_no, "malformed line (fields must be single-space separated)");
    }
    const std::string_view rec = fields[0];

    if (section == Section::kHeader) {
      if (rec != "BTRX" || fields.size() != 2 || fields[1] != "1") {
        return LineError(line_no, "expected header 'BTRX 1'");
      }
      section = Section::kName;
      continue;
    }
    if (section == Section::kName) {
      if (rec != "NAME" || fields.size() != 2) {
        return LineError(line_no, "expected 'NAME <name>'");
      }
      if (!ValidNameToken(fields[1])) {
        return LineError(line_no, "invalid experiment name");
      }
      spec.name = std::string(fields[1]);
      section = Section::kScenario;
      continue;
    }
    if (section == Section::kScenario) {
      if (rec != "SCENARIO" || fields.size() < 2) {
        return LineError(line_no, "expected 'SCENARIO <kind> ...'");
      }
      SpecScenario& s = spec.scenario;
      const auto kind = ParseScenarioKind(fields[1]);
      if (!kind.has_value()) {
        return LineError(line_no, "unknown scenario kind '" + std::string(fields[1]) + "'");
      }
      s.kind = *kind;
      KeyValues kv;
      Status loaded = kv.Load(fields, 2, line_no);
      if (!loaded.ok()) {
        return loaded;
      }
      std::string_view value;
      Status nodes = TakeNumber(&kv, kSpecNodes, line_no, &s.nodes);
      if (!nodes.ok()) {
        return nodes;
      }
      if (RadioKind(s.kind)) {
        Status radio = ParseRadioAttrs(&kv, line_no, &s.loss_pm, &s.duty_on, &s.duty_period);
        if (!radio.ok()) {
          return radio;
        }
      }
      if (s.kind == SpecScenario::Kind::kRandom) {
        if (kv.Take("scenario-seed", &value) && !ParseU64(value, &s.scenario_seed)) {
          return LineError(line_no, "malformed scenario-seed=");
        }
        if (kv.Take("layers", &value) && (!ParseU64(value, &s.layers) || s.layers == 0)) {
          return LineError(line_no, "malformed layers=");
        }
        if (kv.Take("tasks-per-layer", &value) &&
            (!ParseU64(value, &s.tasks_per_layer) || s.tasks_per_layer == 0)) {
          return LineError(line_no, "malformed tasks-per-layer=");
        }
        if (kv.Take("period-us", &value) &&
            (!ParseDurationUs(value, &s.random_period) || s.random_period == 0)) {
          return LineError(line_no, "malformed period-us=");
        }
      }
      if (s.kind == SpecScenario::Kind::kInline) {
        if (!kv.Take("period-us", &value) || !ParseDurationUs(value, &s.period) ||
            s.period == 0) {
          return LineError(line_no, "inline scenarios require period-us=");
        }
      }
      Status done = kv.Done(line_no);
      if (!done.ok()) {
        return done;
      }
      section =
          s.kind == SpecScenario::Kind::kInline ? Section::kInline : Section::kConfig;
      continue;
    }

    if (section == Section::kInline && rec == "LINK") {
      SpecScenario& s = spec.scenario;
      KeyValues kv;
      Status loaded = kv.Load(fields, 1, line_no);
      if (!loaded.ok()) {
        return loaded;
      }
      SpecScenario::Link link;
      std::string_view value;
      if (!kv.Take("name", &value) || !ValidNameToken(value)) {
        return LineError(line_no, "missing or invalid link name=");
      }
      link.name = std::string(value);
      for (const SpecScenario::Link& other : s.links) {
        if (other.name == link.name) {
          return LineError(line_no, "duplicate link name '" + link.name + "'");
        }
      }
      if (!kv.Take("nodes", &value) || !ParseU32List(value, &link.nodes) ||
          link.nodes.size() < 2) {
        return LineError(line_no, "missing or malformed nodes= (need >= 2 endpoints)");
      }
      for (size_t i = 0; i < link.nodes.size(); ++i) {
        if (link.nodes[i] >= s.nodes) {
          return LineError(line_no, "link endpoint " + std::to_string(link.nodes[i]) +
                                        " out of range (scenario has " +
                                        std::to_string(s.nodes) + " nodes)");
        }
        for (size_t j = 0; j < i; ++j) {
          if (link.nodes[j] == link.nodes[i]) {
            return LineError(line_no, "duplicate link endpoint");
          }
        }
      }
      uint64_t bw = 0;
      if (!kv.Take("bw-bps", &value) || !ParseU64(value, &bw) || bw == 0 ||
          bw > static_cast<uint64_t>(INT64_MAX)) {
        return LineError(line_no, "missing or malformed bw-bps=");
      }
      link.bandwidth_bps = static_cast<int64_t>(bw);
      if (!kv.Take("prop-us", &value) || !ParseDurationUs(value, &link.propagation)) {
        return LineError(line_no, "missing or malformed prop-us=");
      }
      Status radio =
          ParseRadioAttrs(&kv, line_no, &link.loss_pm, &link.duty_on, &link.duty_period);
      if (!radio.ok()) {
        return radio;
      }
      Status done = kv.Done(line_no);
      if (!done.ok()) {
        return done;
      }
      s.links.push_back(std::move(link));
      continue;
    }
    if (section == Section::kInline && rec == "TASK") {
      SpecScenario& s = spec.scenario;
      if (!s.flows.empty()) {
        return LineError(line_no, "TASK records must precede FLOW records");
      }
      KeyValues kv;
      Status loaded = kv.Load(fields, 1, line_no);
      if (!loaded.ok()) {
        return loaded;
      }
      std::string_view value;
      if (!kv.Take("name", &value) || !ValidNameToken(value)) {
        return LineError(line_no, "missing or invalid task name=");
      }
      if (known_task(value)) {
        return LineError(line_no, "duplicate task name '" + std::string(value) + "'");
      }
      TaskAttrs attrs;
      Status parsed = ParseTaskAttrs(&kv, line_no, "kind", &attrs);
      if (!parsed.ok()) {
        return parsed;
      }
      Status done = kv.Done(line_no);
      if (!done.ok()) {
        return done;
      }
      if (attrs.has_node && attrs.node >= s.nodes) {
        return LineError(line_no, "pinned node " + std::to_string(attrs.node) +
                                      " out of range (scenario has " +
                                      std::to_string(s.nodes) + " nodes)");
      }
      SpecScenario::Task task;
      task.name = std::string(value);
      task.kind = attrs.kind;
      task.wcet = attrs.wcet;
      task.criticality = attrs.criticality;
      task.state_bytes = attrs.state_bytes;
      task.pinned_node = attrs.node;
      task.deadline = attrs.deadline;
      task_names.push_back(task.name);
      s.tasks.push_back(std::move(task));
      continue;
    }
    if (section == Section::kInline && rec == "FLOW") {
      SpecScenario& s = spec.scenario;
      KeyValues kv;
      Status loaded = kv.Load(fields, 1, line_no);
      if (!loaded.ok()) {
        return loaded;
      }
      SpecScenario::Flow flow;
      std::string_view value;
      if (!kv.Take("from", &value) || !ValidNameToken(value)) {
        return LineError(line_no, "missing or invalid from=");
      }
      flow.from = std::string(value);
      if (!kv.Take("to", &value) || !ValidNameToken(value)) {
        return LineError(line_no, "missing or invalid to=");
      }
      flow.to = std::string(value);
      if (!kv.Take("bytes", &value) || !ParseU32Field(value, &flow.bytes)) {
        return LineError(line_no, "missing or malformed bytes=");
      }
      Status done = kv.Done(line_no);
      if (!done.ok()) {
        return done;
      }
      if (!known_task(flow.from)) {
        return LineError(line_no, "flow references unknown task '" + flow.from + "'");
      }
      if (!known_task(flow.to)) {
        return LineError(line_no, "flow references unknown task '" + flow.to + "'");
      }
      s.flows.push_back(std::move(flow));
      continue;
    }

    if ((section == Section::kConfig || section == Section::kInline) && rec == "CONFIG") {
      KeyValues kv;
      Status loaded = kv.Load(fields, 1, line_no);
      if (!loaded.ok()) {
        return loaded;
      }
      std::string_view value;
      uint64_t f = 0;
      Status taken = TakeNumber(&kv, kSpecFaults, line_no, &f);
      if (taken.ok()) {
        spec.max_faults = static_cast<uint32_t>(f);
        taken = TakeDurationUs(&kv, kSpecRecoveryUs, line_no, &spec.recovery_bound);
      }
      if (taken.ok()) {
        taken = TakeNumber(&kv, kSpecSeed, line_no, &spec.seed);
      }
      if (!taken.ok()) {
        return taken;
      }
      if (kv.Take("heartbeats", &value)) {
        if (value == "0") {
          spec.heartbeats = false;
        } else if (value == "1") {
          spec.heartbeats = true;
        } else {
          return LineError(line_no, "heartbeats= must be 0 or 1");
        }
      }
      if (kv.Take("shards", &value)) {
        uint64_t shards = 0;
        const Status parsed = kSpecShards.Parse(value, &shards);
        if (!parsed.ok()) {
          return LineError(line_no, parsed.message());
        }
        spec.shards = static_cast<uint32_t>(shards);
      }
      Status done = kv.Done(line_no);
      if (!done.ok()) {
        return done;
      }
      section = Section::kSweeps;
      continue;
    }

    if (section == Section::kSweeps && rec == "SWEEP") {
      if (fields.size() < 3) {
        return LineError(line_no, "expected 'SWEEP <key> <value>...'");
      }
      SweepAxis axis;
      axis.line = static_cast<uint32_t>(line_no);
      axis.key = std::string(fields[1]);
      if (axis.key != "seed" && axis.key != "f" && axis.key != "nodes" &&
          axis.key != "recovery-us") {
        return LineError(line_no, "unknown sweep key '" + axis.key +
                                      "' (seed|f|nodes|recovery-us)");
      }
      for (const SweepAxis& other : spec.sweeps) {
        if (other.key == axis.key) {
          return LineError(line_no, "duplicate sweep axis '" + axis.key + "'");
        }
      }
      if (axis.key == "nodes" && spec.scenario.kind == SpecScenario::Kind::kInline) {
        // Inline LINK/TASK records were range-checked against the declared
        // node count; re-sizing it out from under them is forbidden.
        return LineError(line_no, "sweep axis 'nodes' is not valid for inline scenarios");
      }
      for (size_t i = 2; i < fields.size(); ++i) {
        uint64_t v = 0;
        if (!ParseU64(fields[i], &v)) {
          return LineError(line_no, "malformed sweep value '" + std::string(fields[i]) + "'");
        }
        // Sweep values obey the same bounds as the CONFIG / SCENARIO
        // fields they override.
        const SpecNumber& bounds = axis.key == "f"       ? kSpecFaults
                                   : axis.key == "nodes" ? kSpecNodes
                                   : axis.key == "seed"  ? kSpecSeed
                                                         : kSpecRecoveryUs;
        if (!bounds.Check(v).ok()) {
          return LineError(line_no, "sweep value " + std::to_string(v) +
                                        " out of range for axis '" + axis.key + "'");
        }
        axis.values.push_back(v);
      }
      spec.sweeps.push_back(std::move(axis));
      continue;
    }

    if ((section == Section::kSweeps || section == Section::kPhases) && rec == "PHASE") {
      KeyValues kv;
      Status loaded = kv.Load(fields, 1, line_no);
      if (!loaded.ok()) {
        return loaded;
      }
      SpecPhase phase;
      Status periods = TakeNumber(&kv, kSpecPeriods, line_no, &phase.periods);
      if (!periods.ok()) {
        return periods;
      }
      Status done = kv.Done(line_no);
      if (!done.ok()) {
        return done;
      }
      spec.phases.push_back(std::move(phase));
      section = Section::kPhases;
      continue;
    }

    if (section == Section::kPhases && rec == "FAULT") {
      SpecPhase& phase = spec.phases.back();
      KeyValues kv;
      Status loaded = kv.Load(fields, 1, line_no);
      if (!loaded.ok()) {
        return loaded;
      }
      SpecFault fault;
      FaultInjection& inj = fault.injection;
      std::string_view value;
      if (!kv.Take("node", &value)) {
        return LineError(line_no, "missing node=");
      }
      if (value == "critical-primary") {
        fault.critical_primary = true;
      } else {
        uint64_t node = 0;
        const Status parsed = kSpecFaultNode.Parse(value, &node);
        if (!parsed.ok()) {
          return LineError(line_no, parsed.message() + " (or critical-primary)");
        }
        if (spec.scenario.kind == SpecScenario::Kind::kInline &&
            node >= spec.scenario.nodes) {
          return LineError(line_no, "fault node " + std::to_string(node) +
                                        " out of range (scenario has " +
                                        std::to_string(spec.scenario.nodes) + " nodes)");
        }
        inj.node = NodeId(static_cast<uint32_t>(node));
      }
      Status at = TakeDurationUs(&kv, kSpecAtUs, line_no, &inj.manifest_at);
      if (!at.ok()) {
        return at;
      }
      if (!kv.Take("behavior", &value)) {
        return LineError(line_no, "missing behavior=");
      }
      const auto behavior = ParseFaultBehavior(value);
      if (!behavior.has_value()) {
        return LineError(line_no, "unknown behavior '" + std::string(value) + "'");
      }
      inj.behavior = *behavior;
      if (kv.Take("until-us", &value)) {
        uint64_t until_us = 0;
        if (!kSpecUntilUs.Parse(value, &until_us).ok() ||
            static_cast<SimDuration>(until_us) * 1000 <= inj.manifest_at) {
          return LineError(line_no, "until-us must be a time after at-us");
        }
        inj.until = static_cast<SimDuration>(until_us) * 1000;
      }
      if (kv.Take("delay-us", &value)) {
        if (inj.behavior != FaultBehavior::kDelay) {
          return LineError(line_no, "delay-us= is only valid for behavior=delay");
        }
        if (!ParseDurationUs(value, &inj.delay)) {
          return LineError(line_no, "malformed delay-us=");
        }
      }
      if (kv.Take("target", &value)) {
        if (inj.behavior != FaultBehavior::kSelectiveOmission) {
          return LineError(line_no, "target= is only valid for behavior=selective-omission");
        }
        uint32_t target = 0;
        if (!ParseU32Field(value, &target)) {
          return LineError(line_no, "malformed target=");
        }
        inj.target = NodeId(target);
      }
      if (kv.Take("flood", &value)) {
        if (inj.behavior != FaultBehavior::kEvidenceFlood) {
          return LineError(line_no, "flood= is only valid for behavior=evidence-flood");
        }
        if (!ParseU32Field(value, &inj.flood_rate) || inj.flood_rate == 0) {
          return LineError(line_no, "malformed flood=");
        }
      }
      Status done = kv.Done(line_no);
      if (!done.ok()) {
        return done;
      }
      phase.faults.push_back(std::move(fault));
      continue;
    }

    if (section == Section::kPhases && rec == "EDIT") {
      SpecPhase& phase = spec.phases.back();
      std::vector<std::string_view> mutable_fields = fields;
      std::vector<std::string_view> chans;
      ExtractRepeated(&mutable_fields, "chan", &chans);
      KeyValues kv;
      Status loaded = kv.Load(mutable_fields, 1, line_no);
      if (!loaded.ok()) {
        return loaded;
      }
      std::string_view value;
      SimTime at = 0;
      Status taken = TakeDurationUs(&kv, kSpecAtUs, line_no, &at);
      if (!taken.ok()) {
        return taken;
      }
      if (phase.has_edit() && phase.edit_at != at) {
        return LineError(line_no,
                         "all EDIT records in a phase form one batch and must share at-us");
      }
      if (!kv.Take("kind", &value)) {
        return LineError(line_no, "missing kind=");
      }
      const std::string kind(value);
      DeltaEdit edit;
      if (kind == "link-add" || kind == "link-remove" || kind == "link-latency") {
        if (!kv.Take("link", &value) || !ValidNameToken(value)) {
          return LineError(line_no, "missing or invalid link=");
        }
        const std::string link_name(value);
        if (kind == "link-add") {
          std::vector<uint32_t> nodes;
          if (!kv.Take("nodes", &value) || !ParseU32List(value, &nodes) || nodes.size() < 2) {
            return LineError(line_no, "missing or malformed nodes= (need >= 2 endpoints)");
          }
          std::vector<NodeId> endpoints;
          for (uint32_t n : nodes) {
            endpoints.push_back(NodeId(n));
          }
          uint64_t bw = 0;
          if (!kv.Take("bw-bps", &value) || !ParseU64(value, &bw) || bw == 0 ||
              bw > static_cast<uint64_t>(INT64_MAX)) {
            return LineError(line_no, "missing or malformed bw-bps=");
          }
          SimDuration prop = 0;
          if (!kv.Take("prop-us", &value) || !ParseDurationUs(value, &prop)) {
            return LineError(line_no, "missing or malformed prop-us=");
          }
          edit = DeltaEdit::LinkAdd(link_name, std::move(endpoints),
                                    static_cast<int64_t>(bw), prop);
        } else if (kind == "link-remove") {
          edit = DeltaEdit::LinkRemove(link_name);
        } else {
          int64_t bw = 0;  // <= 0 keeps the old value
          SimDuration prop = -1;  // < 0 keeps the old value
          bool any = false;
          if (kv.Take("bw-bps", &value)) {
            uint64_t parsed_bw = 0;
            if (!ParseU64(value, &parsed_bw) || parsed_bw == 0 ||
                parsed_bw > static_cast<uint64_t>(INT64_MAX)) {
              return LineError(line_no, "malformed bw-bps=");
            }
            bw = static_cast<int64_t>(parsed_bw);
            any = true;
          }
          if (kv.Take("prop-us", &value)) {
            if (!ParseDurationUs(value, &prop)) {
              return LineError(line_no, "malformed prop-us=");
            }
            any = true;
          }
          if (!any) {
            return LineError(line_no, "link-latency requires bw-bps= and/or prop-us=");
          }
          edit = DeltaEdit::LinkLatencyChange(link_name, bw, prop);
        }
      } else if (kind == "task-add") {
        if (!kv.Take("name", &value) || !ValidNameToken(value)) {
          return LineError(line_no, "missing or invalid name=");
        }
        const std::string task_name(value);
        TaskAttrs attrs;
        Status parsed = ParseTaskAttrs(&kv, line_no, "task-kind", &attrs);
        if (!parsed.ok()) {
          return parsed;
        }
        TaskSpec task;
        task.name = task_name;
        task.kind = attrs.kind;
        task.wcet = attrs.wcet;
        task.criticality = attrs.criticality;
        task.state_bytes = attrs.state_bytes;
        if (attrs.has_node) {
          task.pinned_node = NodeId(attrs.node);
        }
        task.relative_deadline = attrs.deadline;
        std::vector<DeltaChannel> channels;
        for (std::string_view chan : chans) {
          const size_t c1 = chan.find(':');
          const size_t c2 = c1 == std::string_view::npos
                                ? std::string_view::npos
                                : chan.find(':', c1 + 1);
          if (c2 == std::string_view::npos) {
            return LineError(line_no, "malformed chan= (expected from:to:bytes)");
          }
          DeltaChannel channel;
          const std::string_view from = chan.substr(0, c1);
          const std::string_view to = chan.substr(c1 + 1, c2 - c1 - 1);
          if (!ValidNameToken(from) || !ValidNameToken(to) ||
              !ParseU32Field(chan.substr(c2 + 1), &channel.message_bytes)) {
            return LineError(line_no, "malformed chan= (expected from:to:bytes)");
          }
          channel.from = std::string(from);
          channel.to = std::string(to);
          channels.push_back(std::move(channel));
        }
        edit = DeltaEdit::TaskAdd(std::move(task), std::move(channels));
      } else if (kind == "task-remove") {
        if (!kv.Take("name", &value) || !ValidNameToken(value)) {
          return LineError(line_no, "missing or invalid name=");
        }
        edit = DeltaEdit::TaskRemove(std::string(value));
      } else if (kind == "task-reweight") {
        if (!kv.Take("name", &value) || !ValidNameToken(value)) {
          return LineError(line_no, "missing or invalid name=");
        }
        const std::string task_name(value);
        if (!kv.Take("crit", &value)) {
          return LineError(line_no, "missing crit=");
        }
        const auto crit = ParseCriticality(value);
        if (!crit.has_value()) {
          return LineError(line_no, "unknown criticality '" + std::string(value) + "'");
        }
        edit = DeltaEdit::TaskReweight(task_name, *crit);
      } else {
        return LineError(line_no, "unknown edit kind '" + kind + "'");
      }
      if (!chans.empty() && edit.kind != DeltaKind::kTaskAdd) {
        return LineError(line_no, "chan= is only valid for kind=task-add");
      }
      Status done = kv.Done(line_no);
      if (!done.ok()) {
        return done;
      }
      phase.edit_at = at;
      phase.edit.edits.push_back(std::move(edit));
      continue;
    }

    if (section == Section::kPhases && rec == "END") {
      if (fields.size() != 1) {
        return LineError(line_no, "END takes no fields");
      }
      section = Section::kDone;
      continue;
    }

    return LineError(line_no, "unexpected record '" + std::string(rec) + "' here");
  }

  if (section != Section::kDone) {
    return LineError(line_no + 1, "truncated: missing END");
  }
  return spec;
}

}  // namespace btr
