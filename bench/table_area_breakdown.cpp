// Section VI-F: area breakdown at TSMC 40 nm for the paper configuration
// (32 x 32 PEs, 8 DP MACs + 100 KB buffer per PE).
//
// Paper reference values: MAC array 7.1 % of PE area, memory 82.9 %,
// control + reconfigurable switches 3.7 %; PE array 62.74 % of the chip,
// flexible interconnect 5.2 %, controller 0.9 %.
#include <cstdio>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "energy/area_model.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const CliArgs args(argc, argv, {});  // takes no flags
  const energy::AreaReport report = energy::compute_area(energy::AreaParams{});

  std::printf("Area breakdown (TSMC 40 nm model, 32x32 PEs)\n\n");
  std::printf("Per-PE (total %.4f mm^2):\n", report.pe_total_mm2);
  AsciiTable pe({"component", "mm^2", "share"});
  for (const auto& c : report.pe_components) {
    pe.add_row({c.name, to_fixed(c.mm2, 4),
                to_fixed(100.0 * c.fraction_of_parent, 2) + " %"});
  }
  pe.print();

  std::printf("\nChip level (total %.1f mm^2):\n", report.chip_total_mm2);
  AsciiTable chip({"component", "mm^2", "share"});
  for (const auto& c : report.chip_components) {
    chip.add_row({c.name, to_fixed(c.mm2, 2),
                  to_fixed(100.0 * c.fraction_of_parent, 2) + " %"});
  }
  chip.print();

  std::printf(
      "\npaper reference: MAC 7.1 %%, memory 82.9 %%, PE control 3.7 %% of "
      "PE area;\n"
      "PE array 62.74 %%, flexible interconnect 5.2 %%, controller 0.9 %% "
      "of chip area.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
