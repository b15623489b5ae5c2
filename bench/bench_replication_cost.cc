// E1 "Table 1" — replication cost: BTR vs PBFT vs ZZ vs unreplicated.
//
// Paper claim C1: "BTR can be more efficient than, say, BFT because it
// provides weaker guarantees; detection requires fewer replicas than
// masking." We measure, per fault bound f, the provisioned replicas, the
// fault-free CPU time per period, and the fault-free link bytes per period
// of each scheme on the same workload and network.

#include "bench/bench_util.h"
#include "src/baselines/bft_smr.h"
#include "src/baselines/unreplicated.h"

namespace btr {
namespace {

Status Run() {
  PrintHeader("E1 / Table 1: replication cost vs fault bound f",
              "claim C1: detection (f+1) is cheaper than masking (3f+1)");

  Table table({"f", "scheme", "replicas", "cpu/period", "net bytes/period",
               "cpu vs unreplicated"});
  constexpr uint64_t kPeriods = 100;

  for (uint32_t f = 1; f <= 3; ++f) {
    // Enough flight computers for 3f+1 PBFT replicas.
    Scenario scenario = MakeAvionicsScenario(3 * f + 2);
    const UnreplicatedCost base = ComputeUnreplicatedCost(scenario.workload);

    // --- unreplicated ---
    table.AddRow({CellInt(f), "unreplicated", "1", CellDuration(base.cpu_per_period),
                  CellBytes(base.bytes_per_period), "1.00x"});

    const std::string row = "f=" + std::to_string(f) + " ";

    // --- BTR ---
    {
      BtrSystem system(scenario, DefaultBtrConfig(f, Milliseconds(500)));
      const Status planned = system.Plan();
      if (!planned.ok()) {
        return StepFailed(row + "BTR Plan", planned);
      }
      auto report = system.Run(kPeriods);
      if (!report.ok()) {
        return StepFailed(row + "BTR Run", report.status());
      }
      const double cpu = static_cast<double>(report->total_node_stats.busy +
                                             report->total_node_stats.crypto) /
                         static_cast<double>(kPeriods);
      const double bytes = static_cast<double>(report->network.total_link_bytes) /
                           static_cast<double>(kPeriods);
      table.AddRow({CellInt(f), "BTR (detect)", std::to_string(f + 1) + " per task",
                    CellDuration(cpu), CellBytes(bytes),
                    CellDouble(cpu / base.cpu_per_period, 2) + "x"});
    }

    // --- ZZ ---
    {
      BftConfig config;
      config.f = f;
      config.mode = BftMode::kZz;
      auto report = BftBaseline(&scenario, config).Run(kPeriods, AdversarySpec{});
      if (!report.ok()) {
        return StepFailed(row + "ZZ Run", report.status());
      }
      table.AddRow({CellInt(f), "ZZ (reactive BFT)",
                    std::to_string(f + 1) + "+" + std::to_string(f) + " standby",
                    CellDuration(report->cpu_per_period), CellBytes(report->bytes_per_period),
                    CellDouble(report->cpu_per_period / base.cpu_per_period, 2) + "x"});
    }

    // --- PBFT ---
    {
      BftConfig config;
      config.f = f;
      config.mode = BftMode::kPbft;
      auto report = BftBaseline(&scenario, config).Run(kPeriods, AdversarySpec{});
      if (!report.ok()) {
        return StepFailed(row + "PBFT Run", report.status());
      }
      table.AddRow({CellInt(f), "PBFT (mask)", std::to_string(3 * f + 1),
                    CellDuration(report->cpu_per_period), CellBytes(report->bytes_per_period),
                    CellDouble(report->cpu_per_period / base.cpu_per_period, 2) + "x"});
    }
  }
  std::printf("%s\n", table.Render().c_str());
  return Status::Ok();
}

}  // namespace
}  // namespace btr

int main() { return btr::ExitCode(btr::Run()); }
