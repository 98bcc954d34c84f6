#pragma once

#include "socgen/core/flow.hpp"

#include <string>
#include <vector>

namespace socgen::core {

/// Renders a human-readable Markdown report of one flow run: the task
/// graph, per-core HLS results (latency, II, resources), the synthesis
/// utilisation table, the stage timeline (Figure 9 data) from `stages`,
/// and the list of generated artifacts. The flow writes it as REPORT.md
/// next to the other project outputs. No column holds host times or
/// attempt counts, so two runs that reuse the same results write the
/// same bytes at any `jobs` setting.
[[nodiscard]] std::string renderFlowReport(
    const FlowResult& result, const std::vector<FlowDiagnostics::StageOutcome>& stages);

} // namespace socgen::core
