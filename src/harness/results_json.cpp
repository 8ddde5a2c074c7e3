#include "harness/results_json.hpp"

#include <cmath>
#include <fstream>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "telemetry/trace_sink.hpp"

namespace megh {

namespace {

std::string jnum(double v) {
  if (!std::isfinite(v)) return "0";
  return strf("%.10g", v);
}

void append_totals(std::string& out, const SimulationTotals& t) {
  out += "{";
  out += "\"total_cost_usd\":" + jnum(t.total_cost_usd);
  out += ",\"energy_cost_usd\":" + jnum(t.energy_cost_usd);
  out += ",\"sla_cost_usd\":" + jnum(t.sla_cost_usd);
  out += ",\"migrations\":" + strf("%lld", t.migrations);
  out += ",\"cross_pod_migrations\":" + strf("%lld", t.cross_pod_migrations);
  out += ",\"mean_active_hosts\":" + jnum(t.mean_active_hosts);
  out += ",\"mean_exec_ms\":" + jnum(t.mean_exec_ms);
  out += ",\"max_exec_ms\":" + jnum(t.max_exec_ms);
  out += ",\"steps\":" + strf("%d", t.steps);
  out += ",\"energy_kwh\":" + jnum(t.energy_kwh);
  out += ",\"slatah\":" + jnum(t.slatah);
  out += ",\"pdm\":" + jnum(t.pdm);
  out += ",\"slav\":" + jnum(t.slav);
  out += ",\"esv\":" + jnum(t.esv);
  out += ",\"aborted_migrations\":" + strf("%lld", t.aborted_migrations);
  out += ",\"rejected_down_host\":" + strf("%lld", t.rejected_down_host);
  out += ",\"forced_evacuations\":" + strf("%lld", t.forced_evacuations);
  out += ",\"stranded_vm_steps\":" + strf("%lld", t.stranded_vm_steps);
  out += ",\"fault_events\":" + strf("%lld", t.fault_events);
  out += "}";
}

}  // namespace

std::string results_json_string(const BenchRunMetadata& metadata,
                                const std::vector<ExperimentOutput>& outputs) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"megh.bench.results/v1\",\n";
  out += "  \"metadata\": {";
  out += "\"command\": ";
  append_json_string(out, metadata.command);
  out += ", \"scale\": ";
  append_json_string(out, scale_name(metadata.scale));
  out += ", \"seed\": " + strf("%llu",
                               static_cast<unsigned long long>(metadata.seed));
  out += ", \"jobs\": " + strf("%d", metadata.jobs);
  out += ", \"timing_grade\": ";
  out += metadata.jobs == 1 ? "true" : "false";
  out += ", \"hardware_concurrency\": " +
         strf("%d", metadata.hardware_concurrency);
  out += ", \"wall_ms\": " + jnum(metadata.wall_ms);
  out += "},\n";
  out += "  \"experiments\": [\n";
  for (std::size_t e = 0; e < outputs.size(); ++e) {
    const ExperimentOutput& output = outputs[e];
    out += "    {";
    out += "\"name\": ";
    append_json_string(out, output.spec->name);
    out += ", \"paper_ref\": ";
    append_json_string(out, output.spec->paper_ref);
    out += ", \"title\": ";
    append_json_string(out, output.spec->title);
    out += ", \"scale\": {";
    bool first = true;
    for (const auto& [name, value] : output.scale.values) {
      if (!first) out += ", ";
      first = false;
      append_json_string(out, name);
      out += ": " + jnum(value);
    }
    out += "}";
    out += ", \"seed\": " +
           strf("%llu", static_cast<unsigned long long>(output.seed));
    out += ", \"jobs\": " + strf("%d", output.jobs);
    out += ", \"wall_ms\": " + jnum(output.wall_ms);
    out += ",\n     \"cells\": [\n";
    for (std::size_t c = 0; c < output.cells.size(); ++c) {
      const CellResult& cell = output.cells[c];
      out += "       {\"label\": ";
      append_json_string(out, cell.label);
      out += ", \"group\": ";
      append_json_string(out, cell.group);
      out += ", \"scenario\": " + strf("%d", cell.scenario);
      out += ", \"rng_stream\": " +
             strf("%llu", static_cast<unsigned long long>(cell.rng_stream));
      if (!cell.params.empty()) {
        out += ", \"params\": {";
        bool pfirst = true;
        for (const auto& [name, value] : cell.params) {
          if (!pfirst) out += ", ";
          pfirst = false;
          append_json_string(out, name);
          out += ": " + jnum(value);
        }
        out += "}";
      }
      out += ", \"wall_ms\": " + jnum(cell.wall_ms);
      if (!cell.derived.empty()) {
        out += ", \"derived\": {";
        bool dfirst = true;
        for (const auto& [name, value] : cell.derived) {
          if (!dfirst) out += ", ";
          dfirst = false;
          append_json_string(out, name);
          out += ": " + jnum(value);
        }
        out += "}";
      }
      out += ", \"totals\": ";
      append_totals(out, cell.result.sim.totals);
      out += c + 1 < output.cells.size() ? "},\n" : "}\n";
    }
    out += "     ],\n";
    out += "     \"checks\": [";
    for (std::size_t k = 0; k < output.check_results.size(); ++k) {
      const auto& [description, outcome] = output.check_results[k];
      if (k > 0) out += ", ";
      out += "{\"description\": ";
      append_json_string(out, description);
      out += ", \"status\": ";
      append_json_string(out, check_status_name(outcome.status));
      out += ", \"detail\": ";
      append_json_string(out, outcome.detail);
      out += "}";
    }
    out += "],\n";
    out += "     \"artifacts\": [";
    for (std::size_t a = 0; a < output.artifacts.size(); ++a) {
      if (a > 0) out += ", ";
      append_json_string(out, output.artifacts[a]);
    }
    out += "]}";
    out += e + 1 < outputs.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

void write_results_json(const std::filesystem::path& path,
                        const BenchRunMetadata& metadata,
                        const std::vector<ExperimentOutput>& outputs) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path);
  if (!out) throw IoError("cannot write results json: " + path.string());
  out << results_json_string(metadata, outputs);
}

}  // namespace megh
