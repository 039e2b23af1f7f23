#include "perf/calibrate.hpp"

#include <algorithm>
#include <vector>

#include "common/timer.hpp"

namespace ltswave::perf {

double measure_elem_apply_seconds(const sem::WaveOperator& op, int repetitions) {
  const auto& space = op.space();
  const sem::BatchPlan& plan = op.full_plan();
  const std::size_t ndof =
      static_cast<std::size_t>(space.num_global_nodes()) * static_cast<std::size_t>(op.ncomp());
  std::vector<real_t> u(ndof, 1.0), out(ndof, 0.0);
  auto ws = op.make_workspace();
  const auto apply = [&] {
    op.apply_add_blocks(plan, 0, plan.num_blocks(), u.data(), out.data(), ws);
  };

  apply(); // warm-up
  std::vector<double> samples;
  for (int rep = 0; rep < repetitions; ++rep) {
    WallTimer t;
    apply();
    samples.push_back(t.seconds() / static_cast<double>(space.num_elems()));
  }
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2),
                   samples.end());
  return samples[samples.size() / 2];
}

runtime::MachineModel calibrated_cpu_model(const sem::WaveOperator& op) {
  runtime::MachineModel m = runtime::cpu_rank_model();
  // The measurement includes memory traffic of the (cache-resident-ish) test
  // mesh; attribute it all to the flop term and keep the model's memory terms
  // for the working-set dependence.
  const double measured = measure_elem_apply_seconds(op);
  m.elem_flop_seconds = std::max(1e-8, measured - m.elem_state_bytes / m.cache_bw);
  return m;
}

} // namespace ltswave::perf
