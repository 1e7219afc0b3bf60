// Program images the compiler never produces but a hash-valid blob can
// carry: a writer other than ctdf, or a hostile one, serializes them,
// and machine::deserialize accepts them because every table and range
// in them is consistent.
#pragma once

#include <utility>

#include "dfg/graph.hpp"
#include "machine/blob.hpp"
#include "machine/exec.hpp"

namespace ctdf::testing {

/// start -> loop-exit -> end: the exit's token arrives in the root
/// context, which belongs to no loop.
inline machine::ProgramImage loop_exit_outside_loop_image() {
  dfg::Graph g;
  dfg::Node s;
  s.kind = dfg::OpKind::kStart;
  s.num_outputs = 1;
  s.start_values = {0};
  const dfg::NodeId start = g.add(std::move(s));
  g.set_start(start);
  const dfg::NodeId exit = g.add_loop_exit(cfg::LoopId{0u}, 1, "X");
  g.connect({start, 0}, {exit, 0}, true);
  dfg::Node e;
  e.kind = dfg::OpKind::kEnd;
  e.num_inputs = 1;
  const dfg::NodeId end = g.add(std::move(e));
  g.set_end(end);
  g.connect({exit, 0}, {end, 0}, true);
  machine::ProgramImage image;
  image.exec = machine::lower(g);
  return image;
}

/// start -> add(port 0 token, port 1 literal 7) -> end, with a second
/// arc from start onto the literal port. The literal arc is first, so
/// its token is the one that creates the activation. Graph::connect
/// refuses an arc into a literal port, so the port is bound after it
/// is wired.
inline machine::ProgramImage token_on_literal_port_image() {
  dfg::Graph g;
  dfg::Node s;
  s.kind = dfg::OpKind::kStart;
  s.num_outputs = 1;
  s.start_values = {5};
  const dfg::NodeId start = g.add(std::move(s));
  g.set_start(start);
  const dfg::NodeId add = g.add_binop(lang::BinOp::kAdd, "victim");
  g.connect({start, 0}, {add, 1}, true);
  g.connect({start, 0}, {add, 0}, true);
  g.bind_literal({add, 1}, 7);
  dfg::Node e;
  e.kind = dfg::OpKind::kEnd;
  e.num_inputs = 1;
  const dfg::NodeId end = g.add(std::move(e));
  g.set_end(end);
  g.connect({add, 0}, {end, 0}, true);
  machine::ProgramImage image;
  image.exec = machine::lower(g);
  return image;
}

}  // namespace ctdf::testing
