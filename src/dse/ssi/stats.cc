#include "dse/ssi/stats.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "dse/ids.h"
#include "dse/pm/process_table.h"

namespace dse::ssi {
namespace {

// Union of counter names across every snapshot, sorted (std::set).
std::set<std::string> AllKeys(const std::vector<MetricsSnapshot>& per_node,
                              const MetricsSnapshot& cluster_only) {
  std::set<std::string> keys;
  for (const auto& snap : per_node) {
    for (const auto& [name, value] : snap) keys.insert(name);
  }
  for (const auto& [name, value] : cluster_only) keys.insert(name);
  return keys;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void AppendJsonObject(std::string* out, const MetricsSnapshot& snap) {
  *out += "{";
  bool first = true;
  for (const auto& [name, value] : snap) {
    if (!first) *out += ", ";
    first = false;
    out->append("\"").append(JsonEscape(name)).append("\": ");
    out->append(std::to_string(value));
  }
  *out += "}";
}

}  // namespace

MetricsSnapshot Aggregate(const std::vector<MetricsSnapshot>& per_node) {
  MetricsSnapshot total;
  for (const auto& snap : per_node) {
    for (const auto& [name, value] : snap) total[name] += value;
  }
  return total;
}

std::string FormatStatsTable(const std::vector<MetricsSnapshot>& per_node,
                             const MetricsSnapshot& cluster_only) {
  const std::set<std::string> keys = AllKeys(per_node, cluster_only);
  size_t name_width = 7;  // "counter"
  for (const auto& key : keys) name_width = std::max(name_width, key.size());

  char cell[64];
  std::string out;
  out.reserve((keys.size() + 1) * (name_width + 12 * (per_node.size() + 1)));

  out.append("counter").append(name_width - 7, ' ');
  for (size_t n = 0; n < per_node.size(); ++n) {
    std::snprintf(cell, sizeof(cell), "  node%-6zu", n);
    out += cell;
  }
  out += "       total\n";

  const MetricsSnapshot total = Aggregate(per_node);
  for (const auto& key : keys) {
    out.append(key).append(name_width - key.size(), ' ');
    const auto cluster_it = cluster_only.find(key);
    for (const auto& snap : per_node) {
      const auto it = snap.find(key);
      if (cluster_it != cluster_only.end()) {
        out += "           -";  // no owning node
      } else {
        std::snprintf(cell, sizeof(cell), "  %10llu",
                      static_cast<unsigned long long>(
                          it == snap.end() ? 0 : it->second));
        out += cell;
      }
    }
    const auto total_it = total.find(key);
    const std::uint64_t sum = cluster_it != cluster_only.end()
                                  ? cluster_it->second
                                  : total_it->second;
    std::snprintf(cell, sizeof(cell), "  %10llu\n",
                  static_cast<unsigned long long>(sum));
    out += cell;
  }
  return out;
}

std::string FormatHistogramTable(
    const std::map<std::string, RunningStats>& merged) {
  size_t name_width = 9;  // "histogram"
  for (const auto& [name, s] : merged) {
    name_width = std::max(name_width, name.size());
  }
  std::string out = "histogram";
  out.append(name_width - 9, ' ');
  out += "       count         min        mean         max\n";
  char line[160];
  for (const auto& [name, s] : merged) {
    out.append(name).append(name_width - name.size(), ' ');
    std::snprintf(line, sizeof(line), "  %10llu  %10.1f  %10.1f  %10.1f\n",
                  static_cast<unsigned long long>(s.count()), s.min(),
                  s.mean(), s.max());
    out += line;
  }
  return out;
}

std::string StatsToJson(const std::vector<MetricsSnapshot>& per_node,
                        const MetricsSnapshot& cluster_only) {
  std::string out = "{\n  \"nodes\": [\n";
  for (size_t n = 0; n < per_node.size(); ++n) {
    out += "    ";
    AppendJsonObject(&out, per_node[n]);
    if (n + 1 < per_node.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n  \"cluster\": ";
  MetricsSnapshot total = Aggregate(per_node);
  for (const auto& [name, value] : cluster_only) total[name] += value;
  AppendJsonObject(&out, total);
  out += "\n}\n";
  return out;
}

std::string StatsToCsv(const std::vector<MetricsSnapshot>& per_node,
                       const MetricsSnapshot& cluster_only) {
  std::string out = "counter,node,value\n";
  for (size_t n = 0; n < per_node.size(); ++n) {
    for (const auto& [name, value] : per_node[n]) {
      out += name + "," + std::to_string(n) + "," + std::to_string(value) +
             "\n";
    }
  }
  MetricsSnapshot total = Aggregate(per_node);
  for (const auto& [name, value] : cluster_only) total[name] += value;
  for (const auto& [name, value] : total) {
    out += name + ",cluster," + std::to_string(value) + "\n";
  }
  return out;
}

std::string FormatPsTable(const std::vector<proto::PsEntry>& entries) {
  std::string out = "GPID      NODE  STATE    TASK\n";
  char line[192];
  for (const proto::PsEntry& e : entries) {
    const bool done = e.state == static_cast<std::uint8_t>(pm::TaskState::kDone);
    std::snprintf(line, sizeof(line), "%-8s  %4d  %-7s  %s\n",
                  GpidToString(e.gpid).c_str(), GpidNode(e.gpid),
                  done ? "done" : "running", e.task_name.c_str());
    out += line;
  }
  return out;
}

}  // namespace dse::ssi
