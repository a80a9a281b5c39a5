// Reproduces Table II (§III-B, §VI-C): the ten handcrafted model-execution
// rules, plus diagnostics the paper discusses qualitatively — how often each
// rule fires on real traffic and what the rule-based policy costs relative
// to random (rules help only marginally; see bench_fig06 for the curves).

#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "core/labeling_service.h"
#include "eval/recall_curve.h"
#include "eval/world.h"
#include "sched/rule_based.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace ams;

void Run() {
  bench::Banner("Table II — ten handcrafted model execution rules");
  const std::vector<sched::ExecutionRule> rules = sched::DefaultRules();
  util::AsciiTable table;
  table.SetHeader({"#", "rule"});
  for (size_t r = 0; r < rules.size(); ++r) {
    table.AddRow({std::to_string(r + 1), rules[r].description});
  }
  table.Print(std::cout);

  // Fire-rate diagnostics on MSCOCO traffic: each rule fires at most once
  // per item, on the first fresh label that triggers it.
  eval::World world(eval::WorldConfig::FromEnv());
  const int d = world.IndexOf("mscoco");
  const data::Oracle& oracle = world.oracle(d);
  std::vector<int> items = world.EvalItems(d);
  if (items.size() > 300) items.resize(300);

  sched::PolicyOptions options;
  options.rules = rules;
  options.seed = 999;
  core::LabelingService service =
      core::LabelingServiceBuilder(&oracle.zoo())
          .WithOracle(&oracle)
          .WithMode(core::ExecutionMode::kSerial)
          .WithPolicy("rule_based", options)
          .WithRecallTarget(1.0)
          .WithKernelMode(core::KernelMode::kFull)  // fresh labels are read
          .Build();
  double rule_time = 0.0;
  std::vector<int> fire_counts(rules.size(), 0);
  for (int item : items) {
    const core::LabelOutcome outcome =
        service.Submit(core::WorkItem::Stored(item));
    rule_time += outcome.schedule.makespan_s;
    std::vector<bool> fired(rules.size(), false);
    for (const core::ExecutionRecord& record : outcome.schedule.executions) {
      for (const zoo::LabelOutput& out : record.fresh) {
        for (size_t r = 0; r < rules.size(); ++r) {
          if (fired[r] ||
              !sched::RuleTriggered(rules[r], oracle.zoo().labels(),
                                    out.label_id)) {
            continue;
          }
          fired[r] = true;
          ++fire_counts[r];
        }
      }
    }
  }
  rule_time /= static_cast<double>(items.size());

  const eval::FullRecallCosts random_costs = eval::ComputeFullRecallCosts(
      eval::PolicySpec{"random", {/*seed=*/7}}, oracle, items);
  const double random_time = util::Mean(random_costs.time_s);

  bench::Banner("Rule fire counts over " + std::to_string(items.size()) +
                " MSCOCO images");
  util::AsciiTable fires;
  fires.SetHeader({"#", "rule", "fired"});
  for (size_t r = 0; r < rules.size(); ++r) {
    fires.AddRow({std::to_string(r + 1), rules[r].description,
                  std::to_string(fire_counts[r])});
  }
  fires.Print(std::cout);

  std::cout << "\nrule-based avg time to full recall: "
            << util::FormatDouble(rule_time, 2) << " s vs random "
            << util::FormatDouble(random_time, 2) << " s ("
            << util::FormatDouble(100.0 * (1.0 - rule_time / random_time), 1)
            << "% saved; paper: rules save only ~2% at full recall)\n";
}

}  // namespace

int main() {
  Run();
  return 0;
}
