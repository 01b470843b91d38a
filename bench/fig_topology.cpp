// Figures 2-7: availability vs q_r for alpha in {0, .25, .50, .75, 1} on
// the paper's 101-site ring with QUORA_FIG_CHORDS chords (DESIGN.md
// FIG2-FIG7). bench/CMakeLists.txt builds one binary per figure from this
// file, fig<QUORA_FIG_NUMBER>_topology<QUORA_FIG_CHORDS>.

#include <string>

#include "common.hpp"
#include "net/builders.hpp"

int main(int argc, char** argv) {
  const quora::bench::RunScale scale = quora::bench::parse_args(argc, argv);
  const quora::net::Topology topo =
      quora::net::make_ring_with_chords(101, QUORA_FIG_CHORDS);
  const std::string chords = std::to_string(QUORA_FIG_CHORDS);
  std::string shape = "ring + " + chords + " chords";
  if (QUORA_FIG_CHORDS == 0) shape = "ring: 101 sites, 101 links";
  if (QUORA_FIG_CHORDS == 1) shape = "ring + 1 chord";
  quora::bench::run_figure(topo,
                           "Figure " + std::to_string(QUORA_FIG_NUMBER) +
                               ": Topology " + chords + " (" + shape + ")",
                           scale);
  return 0;
}
