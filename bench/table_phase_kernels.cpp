// The paper's benchmark methodology (Sec VI-A "Benchmark"): PolyBench
// kernels stand in for the computations of each GNN execution phase. This
// table runs each kernel through its phase's PE datapath configuration and
// reports functional agreement with the dense reference plus the modeled
// cycle cost on one PE.
//
//   Edge update:  gramschmidt, mvt, gemver, gesummv, ReLU
//   Aggregation:  gemver (vector addition)
//   Vertex update: mvt, ReLU
#include <cstdio>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "gnn/reference.hpp"
#include "pe/datapath.hpp"
#include "pe/ppu.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const CliArgs args(argc, argv, {});  // takes no flags
  Rng rng(77);
  constexpr std::size_t kN = 32;

  std::printf("Phase benchmark kernels (PolyBench, paper Sec VI-A)\n\n");
  AsciiTable table({"phase", "kernel", "datapath config", "PE cycles",
                    "max |err| vs reference"});

  pe::PeDatapath dp{pe::PeParams{}};
  const pe::Ppu ppu{pe::PpuParams{}};

  // --- mvt (matrix-vector product): edge + vertex update ------------------
  {
    gnn::Matrix a(kN, kN);
    a.randomize(rng);
    gnn::Vector y1(kN), x_ref(kN, 0.0);
    for (double& v : y1) v = rng.next_double(-1, 1);
    gnn::Vector x2(kN, 0.0), y2(kN, 0.0);
    gnn::Vector x1 = x_ref;
    gnn::kernel_mvt(a, x1, x2, y1, y2);

    dp.configure(pe::PeConfigKind::kMatVec);
    const gnn::Vector got = dp.run_mat_vec(a, y1);
    double err = 0.0;
    for (std::size_t i = 0; i < kN; ++i) {
      err = std::max(err, std::abs(got[i] - x1[i]));
    }
    const Cycle cycles = pe::micro_op_cycles(
        {pe::PeConfigKind::kMatVec, kN, kN}, pe::PeParams{});
    table.add_row({"edge/vertex update", "mvt", "MxV",
                   std::to_string(cycles), to_fixed(err, 15)});
  }

  // --- gesummv (y = aAx + bBx): edge update -------------------------------
  {
    gnn::Matrix a(kN, kN), b(kN, kN);
    a.randomize(rng);
    b.randomize(rng);
    gnn::Vector x(kN);
    for (double& v : x) v = rng.next_double(-1, 1);
    const gnn::Vector want = gnn::kernel_gesummv(1.5, 0.5, a, b, x);

    dp.configure(pe::PeConfigKind::kMatVec);
    const gnn::Vector ax = dp.run_mat_vec(a, x);
    const gnn::Vector bx = dp.run_mat_vec(b, x);
    dp.configure(pe::PeConfigKind::kScalarVec);
    gnn::Vector acc = dp.run_scalar_vec(1.5, ax);
    const gnn::Vector sbx = dp.run_scalar_vec(0.5, bx);
    dp.configure(pe::PeConfigKind::kAccumulate);
    dp.run_accumulate(acc, sbx);
    double err = 0.0;
    for (std::size_t i = 0; i < kN; ++i) {
      err = std::max(err, std::abs(acc[i] - want[i]));
    }
    const Cycle cycles =
        2 * pe::micro_op_cycles({pe::PeConfigKind::kMatVec, kN, kN},
                                pe::PeParams{}) +
        2 * pe::micro_op_cycles({pe::PeConfigKind::kScalarVec, kN, 1},
                                pe::PeParams{}) +
        pe::micro_op_cycles({pe::PeConfigKind::kAccumulate, kN, 1},
                            pe::PeParams{});
    table.add_row({"edge update", "gesummv", "MxV + ScalarxV + SumV",
                   std::to_string(cycles), to_fixed(err, 15)});
  }

  // --- gemver's vector-addition core: aggregation -------------------------
  {
    gnn::Vector acc(kN, 0.0), u(kN), v(kN);
    for (double& e : u) e = rng.next_double(-1, 1);
    for (double& e : v) e = rng.next_double(-1, 1);
    dp.configure(pe::PeConfigKind::kAccumulate);
    dp.run_accumulate(acc, u);
    dp.run_accumulate(acc, v);
    double err = 0.0;
    for (std::size_t i = 0; i < kN; ++i) {
      err = std::max(err, std::abs(acc[i] - (u[i] + v[i])));
    }
    const Cycle cycles = 2 * pe::micro_op_cycles(
                                 {pe::PeConfigKind::kAccumulate, kN, 1},
                                 pe::PeParams{});
    table.add_row({"aggregation", "gemver (vector add)", "SumV",
                   std::to_string(cycles), to_fixed(err, 15)});
  }

  // --- gramschmidt: edge update (orthogonalisation) ------------------------
  {
    gnn::Matrix a(kN, 6);
    a.randomize(rng);
    const gnn::Matrix q = gnn::kernel_gramschmidt(a);
    // Orthonormality check as the "error": max |q_i . q_j - delta_ij|.
    double err = 0.0;
    dp.configure(pe::PeConfigKind::kDotProduct);
    for (std::size_t i = 0; i < q.cols(); ++i) {
      for (std::size_t j = 0; j < q.cols(); ++j) {
        gnn::Vector qi(q.rows()), qj(q.rows());
        for (std::size_t r = 0; r < q.rows(); ++r) {
          qi[r] = q.at(r, i);
          qj[r] = q.at(r, j);
        }
        const double d = dp.run_dot(qi, qj);
        err = std::max(err, std::abs(d - (i == j ? 1.0 : 0.0)));
      }
    }
    table.add_row({"edge update", "gramschmidt", "V.V (check)", "-",
                   to_fixed(err, 15)});
  }

  // --- ReLU in the PPU ------------------------------------------------------
  {
    gnn::Vector x(kN);
    for (double& v : x) v = rng.next_double(-2, 2);
    const gnn::Vector y = ppu.apply(pe::Activation::kRelu, x);
    double err = 0.0;
    for (std::size_t i = 0; i < kN; ++i) {
      err = std::max(err, std::abs(y[i] - std::max(0.0, x[i])));
    }
    table.add_row({"edge/vertex update", "ReLU", "PPU",
                   std::to_string(ppu.activation_cycles(
                       pe::Activation::kRelu, kN)),
                   to_fixed(err, 15)});
  }

  table.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
