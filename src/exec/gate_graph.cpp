#include "exec/gate_graph.h"

#include <cassert>
#include <cstddef>

#include "common/status.h"

namespace matcha::exec {

namespace {

// Graph construction consumes payloads that may come from outside the
// process (deserialized circuits, user-built LutSpecs), so malformed input
// must fail in release builds too -- a structured throw, not an assert that
// NDEBUG compiles away into silent memory corruption.
void require(bool cond, const char* msg) {
  if (!cond) throw StatusError(invalid_argument_status(msg));
}

} // namespace

Wire GateGraph::add_input() {
  GateNode n;
  n.is_input = true;
  const int id = num_nodes();
  nodes_.push_back(n);
  inputs_.push_back(id);
  return Wire{id};
}

Wire GateGraph::add_const(bool value) {
  int& cached = const_wire_[value ? 1 : 0];
  if (cached >= 0) return Wire{cached};
  GateNode n;
  n.is_const = true;
  n.const_value = value;
  cached = num_nodes();
  nodes_.push_back(n);
  return Wire{cached};
}

Wire GateGraph::add_gate(GateKind kind, Wire a, Wire b, Wire c) {
  require(kind != GateKind::kLut, "LUT nodes carry a payload; use add_lut");
  require(kind != GateKind::kLutOut,
          "secondary LUT outputs carry an index; use add_lut_output");
  GateNode n;
  n.kind = kind;
  n.in = {a.id, b.id, c.id, -1};
  const int id = num_nodes();
  for (int i = 0; i < n.fan_in(); ++i) {
    require(n.in[i] >= 0 && n.in[i] < id, "gate consumes an unknown wire");
  }
  nodes_.push_back(n);
  ++num_gates_;
  return Wire{id};
}

Wire GateGraph::add_lut(std::span<const Wire> ins, const LutSpec& spec) {
  if (const Status st = validate_lut_spec(spec); !st.ok()) {
    throw StatusError(st);
  }
  require(static_cast<size_t>(spec.k) == ins.size(),
          "LUT fan-in must match its spec");
  GateNode n;
  n.kind = GateKind::kLut;
  n.lut = spec;
  const int id = num_nodes();
  for (size_t i = 0; i < ins.size(); ++i) {
    require(ins[i].id >= 0 && ins[i].id < id, "LUT consumes an unknown wire");
    n.in[i] = ins[i].id;
  }
  nodes_.push_back(n);
  ++num_gates_;
  return Wire{id};
}

Wire GateGraph::add_lut_output(Wire parent, int out_index) {
  require(parent.valid() && parent.id < num_nodes(),
          "LUT output of an unknown wire");
  const GateNode& p = nodes_[static_cast<size_t>(parent.id)];
  require(p.kind == GateKind::kLut && p.is_gate(),
          "add_lut_output wants a kLut parent");
  require(out_index >= 1 && out_index < p.lut.n_out,
          "LUT output index out of the spec's range");
  GateNode n;
  n.kind = GateKind::kLutOut;
  n.in[0] = parent.id;
  n.aux = static_cast<int8_t>(out_index);
  const int id = num_nodes();
  nodes_.push_back(n);
  ++num_gates_;
  return Wire{id};
}

Wire GateGraph::clone_gate(const GateNode& proto, std::span<const int> ins) {
  assert(proto.is_gate() && "clone_gate copies gate nodes only");
  GateNode n;
  n.kind = proto.kind;
  n.lut = proto.lut;
  n.aux = proto.aux;
  const int id = num_nodes();
  assert(static_cast<size_t>(n.fan_in()) <= ins.size());
  for (int i = 0; i < n.fan_in(); ++i) {
    assert(ins[static_cast<size_t>(i)] >= 0 && ins[static_cast<size_t>(i)] < id &&
           "gate consumes an unknown wire");
    n.in[static_cast<size_t>(i)] = ins[static_cast<size_t>(i)];
  }
  nodes_.push_back(n);
  ++num_gates_;
  return Wire{id};
}

void GateGraph::mark_output(Wire w) {
  require(w.valid() && w.id < num_nodes(), "output marks an unknown wire");
  outputs_.push_back(w.id);
}

int64_t GateGraph::bootstrap_count() const {
  int64_t total = 0;
  for (const auto& n : nodes_) {
    if (n.is_gate()) total += bootstrap_cost(n.kind);
  }
  return total;
}

int64_t GateGraph::extraction_count() const {
  int64_t total = 0;
  for (const auto& n : nodes_) {
    if (!n.is_gate()) continue;
    total += bootstrap_cost(n.kind); // one extraction per rotation
    if (n.kind == GateKind::kLutOut) ++total;
  }
  return total;
}

int GateGraph::bootstrap_depth() const {
  std::vector<int> depth(nodes_.size(), 0);
  int longest = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const GateNode& n = nodes_[i];
    if (!n.is_gate()) continue;
    int deepest = 0;
    for (int j = 0; j < n.fan_in(); ++j) {
      const int d = depth[static_cast<size_t>(n.in[static_cast<size_t>(j)])];
      if (d > deepest) deepest = d;
    }
    depth[i] = deepest + depth_cost(n.kind);
    if (depth[i] > longest) longest = depth[i];
  }
  return longest;
}

std::vector<std::vector<int>> GateGraph::levelize() const {
  std::vector<int> level(nodes_.size(), 0);
  int depth = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const GateNode& n = nodes_[i];
    if (!n.is_gate()) continue;
    int deepest = 0;
    for (int j = 0; j < n.fan_in(); ++j) {
      if (level[n.in[j]] > deepest) deepest = level[n.in[j]];
    }
    level[i] = deepest + 1;
    if (level[i] > depth) depth = level[i];
  }
  std::vector<std::vector<int>> levels(nodes_.empty() ? 0 : depth + 1);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    levels[level[i]].push_back(static_cast<int>(i));
  }
  return levels;
}

DataflowInfo GateGraph::dataflow_info() const {
  DataflowInfo info;
  info.consumers.resize(nodes_.size());
  info.gate_indegree.assign(nodes_.size(), 0);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const GateNode& n = nodes_[i];
    if (!n.is_gate()) continue;
    for (int j = 0; j < n.fan_in(); ++j) {
      const int op = n.in[j];
      if (!nodes_[static_cast<size_t>(op)].is_gate()) continue;
      info.consumers[static_cast<size_t>(op)].push_back(static_cast<int>(i));
      ++info.gate_indegree[i];
    }
  }
  return info;
}

std::vector<std::vector<int>> GateGraph::wavefronts() const {
  auto levels = levelize();
  if (levels.empty()) return {};
  levels.erase(levels.begin());
  return levels;
}

} // namespace matcha::exec
