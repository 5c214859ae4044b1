// Test shorthand for the most common threaded-runtime configuration.
#pragma once

#include "dse/threaded_runtime.h"

namespace dse {

// Threaded-runtime options for `num_nodes` nodes, every knob at its
// default. Set further knobs on the returned value.
inline ThreadedOptions ThreadedNodes(int num_nodes) {
  ThreadedOptions options;
  options.num_nodes = num_nodes;
  return options;
}

}  // namespace dse
