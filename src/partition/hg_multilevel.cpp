#include "partition/hg_multilevel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <queue>
#include <unordered_map>

namespace ltswave::partition {

using graph::Hypergraph;
using graph::weight_t;

namespace {

// ---------------------------------------------------------------------------
// Balance bookkeeping: side-0 weight per constraint against the targets
// ---------------------------------------------------------------------------

struct HgBalance {
  int ncon = 1;
  std::vector<weight_t> total;
  std::vector<weight_t> w0;
  std::vector<double> target0;
  double eps = 0.05;

  void init(const Hypergraph& h, double frac0, double eps_in) {
    ncon = h.num_constraints();
    total = h.total_weights();
    w0.assign(static_cast<std::size_t>(ncon), 0);
    target0.resize(static_cast<std::size_t>(ncon));
    for (int c = 0; c < ncon; ++c)
      target0[static_cast<std::size_t>(c)] = frac0 * static_cast<double>(total[static_cast<std::size_t>(c)]);
    eps = eps_in;
  }

  [[nodiscard]] double violation() const {
    double viol = 0;
    for (int c = 0; c < ncon; ++c) {
      const auto tc = static_cast<double>(total[static_cast<std::size_t>(c)]);
      if (tc == 0) continue;
      const double t0 = target0[static_cast<std::size_t>(c)];
      const double hi0 = (1 + eps) * t0;
      const double hi1 = (1 + eps) * (tc - t0);
      const auto w0c = static_cast<double>(w0[static_cast<std::size_t>(c)]);
      viol += std::max(0.0, w0c - hi0) / tc;
      viol += std::max(0.0, (tc - w0c) - hi1) / tc;
    }
    return viol;
  }

  /// The (side, constraint) with the largest normalized bound excess.
  [[nodiscard]] std::pair<int, int> worst_excess() const {
    int side = 0, con = 0;
    double worst = -1;
    for (int c = 0; c < ncon; ++c) {
      const auto tc = static_cast<double>(total[static_cast<std::size_t>(c)]);
      if (tc == 0) continue;
      const double t0 = target0[static_cast<std::size_t>(c)];
      const double hi0 = (1 + eps) * t0;
      const double hi1 = (1 + eps) * (tc - t0);
      const auto w0c = static_cast<double>(w0[static_cast<std::size_t>(c)]);
      const double e0 = (w0c - hi0) / tc;
      const double e1 = ((tc - w0c) - hi1) / tc;
      if (e0 > worst) {
        worst = e0;
        side = 0;
        con = c;
      }
      if (e1 > worst) {
        worst = e1;
        side = 1;
        con = c;
      }
    }
    return {side, con};
  }

  void apply_move(const Hypergraph& h, index_t v, bool to_side0) {
    for (int c = 0; c < ncon; ++c)
      w0[static_cast<std::size_t>(c)] += to_side0 ? h.vwgt(v, c) : -h.vwgt(v, c);
  }
};

weight_t hg_cut2(const Hypergraph& h, const std::vector<std::uint8_t>& side) {
  weight_t cut = 0;
  for (index_t net = 0; net < h.num_nets(); ++net) {
    auto p = h.pins(net);
    bool has0 = false, has1 = false;
    for (index_t v : p) (side[static_cast<std::size_t>(v)] ? has1 : has0) = true;
    if (has0 && has1) cut += h.net_cost(net);
  }
  return cut;
}

// ---------------------------------------------------------------------------
// Coarsening: heavy-connectivity matching (agglomerative, PaToH-style)
// ---------------------------------------------------------------------------

struct HgCoarseLevel {
  Hypergraph hg;
  std::vector<index_t> cmap;
};

HgCoarseLevel hg_coarsen_once(const Hypergraph& h, Rng& rng) {
  const index_t n = h.num_vertices();
  std::vector<index_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (index_t i = n - 1; i > 0; --i)
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng.uniform(static_cast<std::uint64_t>(i) + 1))]);

  // Constraint signature: which constraint a vertex's weight lives in (the
  // LTS weights are one-hot). Preferring same-signature partners keeps coarse
  // vertices "pure", so per-level balance stays achievable on coarse levels.
  const int ncon_sig = h.num_constraints();
  auto signature = [&](index_t v) {
    for (int c = 0; c < ncon_sig; ++c)
      if (h.vwgt(v, c) != 0) return c;
    return 0;
  };

  std::vector<index_t> match(static_cast<std::size_t>(n), kInvalidIndex);
  // Scatter accumulator for per-candidate shared net cost.
  std::vector<weight_t> score(static_cast<std::size_t>(n), 0);
  std::vector<index_t> touched;

  for (index_t v : order) {
    if (match[static_cast<std::size_t>(v)] != kInvalidIndex) continue;
    touched.clear();
    for (index_t net : h.nets_of(v)) {
      for (index_t u : h.pins(net)) {
        if (u == v || match[static_cast<std::size_t>(u)] != kInvalidIndex) continue;
        if (score[static_cast<std::size_t>(u)] == 0) touched.push_back(u);
        score[static_cast<std::size_t>(u)] += h.net_cost(net);
      }
    }
    const int sig_v = signature(v);
    index_t best = kInvalidIndex, best_same = kInvalidIndex;
    weight_t best_s = 0, best_same_s = 0;
    for (index_t u : touched) {
      if (score[static_cast<std::size_t>(u)] > best_s) {
        best_s = score[static_cast<std::size_t>(u)];
        best = u;
      }
      if (signature(u) == sig_v && score[static_cast<std::size_t>(u)] > best_same_s) {
        best_same_s = score[static_cast<std::size_t>(u)];
        best_same = u;
      }
      score[static_cast<std::size_t>(u)] = 0;
    }
    // Prefer a same-signature partner when it is competitive (keeps coarse
    // vertices pure for balance), but never at the price of skipping a far
    // heavier cross-level contraction (those nets carry the p-level costs).
    if (best_same != kInvalidIndex && 2 * best_same_s >= best_s) best = best_same;
    match[static_cast<std::size_t>(v)] = (best == kInvalidIndex) ? v : best;
    if (best != kInvalidIndex) match[static_cast<std::size_t>(best)] = v;
  }

  HgCoarseLevel lvl;
  lvl.cmap.assign(static_cast<std::size_t>(n), kInvalidIndex);
  index_t nc = 0;
  for (index_t v = 0; v < n; ++v) {
    if (lvl.cmap[static_cast<std::size_t>(v)] != kInvalidIndex) continue;
    lvl.cmap[static_cast<std::size_t>(v)] = nc;
    lvl.cmap[static_cast<std::size_t>(match[static_cast<std::size_t>(v)])] = nc;
    ++nc;
  }

  // Coarse nets: remap pins, dedupe within each net, drop single-pin nets and
  // merge identical nets (summing costs).
  struct NetKey {
    std::vector<index_t> pins;
    bool operator==(const NetKey& o) const { return pins == o.pins; }
  };
  struct NetKeyHash {
    std::size_t operator()(const NetKey& k) const {
      std::uint64_t hsh = 0xcbf29ce484222325ULL;
      for (index_t v : k.pins) {
        hsh ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
        hsh *= 0x100000001b3ULL;
      }
      return static_cast<std::size_t>(hsh);
    }
  };
  std::unordered_map<NetKey, weight_t, NetKeyHash> merged;
  merged.reserve(static_cast<std::size_t>(h.num_nets()));
  std::vector<index_t> tmp;
  for (index_t net = 0; net < h.num_nets(); ++net) {
    tmp.clear();
    for (index_t v : h.pins(net)) tmp.push_back(lvl.cmap[static_cast<std::size_t>(v)]);
    std::sort(tmp.begin(), tmp.end());
    tmp.erase(std::unique(tmp.begin(), tmp.end()), tmp.end());
    if (tmp.size() < 2) continue;
    merged[NetKey{tmp}] += h.net_cost(net);
  }

  std::vector<index_t> offsets = {0};
  std::vector<index_t> pins;
  std::vector<weight_t> costs;
  offsets.reserve(merged.size() + 1);
  costs.reserve(merged.size());
  for (const auto& [key, cost] : merged) {
    pins.insert(pins.end(), key.pins.begin(), key.pins.end());
    offsets.push_back(static_cast<index_t>(pins.size()));
    costs.push_back(cost);
  }

  const int ncon = h.num_constraints();
  std::vector<weight_t> cvw(static_cast<std::size_t>(nc) * static_cast<std::size_t>(ncon), 0);
  for (index_t v = 0; v < n; ++v)
    for (int c = 0; c < ncon; ++c)
      cvw[static_cast<std::size_t>(lvl.cmap[static_cast<std::size_t>(v)]) * static_cast<std::size_t>(ncon) + static_cast<std::size_t>(c)] += h.vwgt(v, c);

  lvl.hg = Hypergraph(nc, std::move(offsets), std::move(pins), std::move(costs));
  lvl.hg.set_vertex_weights(std::move(cvw), ncon);
  return lvl;
}

// ---------------------------------------------------------------------------
// FM refinement (2-way, connectivity == cut for two parts)
// ---------------------------------------------------------------------------

bool hg_fm_pass(const Hypergraph& h, std::vector<std::uint8_t>& side, HgBalance& bal,
                weight_t& cut) {
  const index_t n = h.num_vertices();
  const index_t nnets = h.num_nets();

  // pins_on[net][s]: pin count of net on side s.
  std::vector<std::array<index_t, 2>> pins_on(static_cast<std::size_t>(nnets), {0, 0});
  for (index_t net = 0; net < nnets; ++net)
    for (index_t v : h.pins(net)) ++pins_on[static_cast<std::size_t>(net)][side[static_cast<std::size_t>(v)]];

  // Gain contribution of one net to moving a pin off side s.
  const auto net_gain = [](const std::array<index_t, 2>& po, int s, weight_t cost) -> weight_t {
    if (po[static_cast<std::size_t>(1 - s)] == 0) return -cost; // would newly cut this net
    if (po[static_cast<std::size_t>(s)] == 1) return cost;      // the last pin on s: uncuts
    return 0;
  };
  auto gain_of = [&](index_t v) {
    const int s = side[static_cast<std::size_t>(v)];
    weight_t gv = 0;
    for (index_t net : h.nets_of(v)) gv += net_gain(pins_on[static_cast<std::size_t>(net)], s, h.net_cost(net));
    return gv;
  };

  std::vector<weight_t> gain(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) gain[static_cast<std::size_t>(v)] = gain_of(v);

  using Entry = std::pair<weight_t, index_t>;
  std::priority_queue<Entry> heap[2];
  for (index_t v = 0; v < n; ++v) heap[side[static_cast<std::size_t>(v)]].emplace(gain[static_cast<std::size_t>(v)], v);

  std::vector<std::uint8_t> locked(static_cast<std::size_t>(n), 0);
  std::vector<index_t> moved;
  std::vector<std::uint8_t> touched_mark(static_cast<std::size_t>(n), 0);
  std::vector<Entry> touched; // (gain before the move, vertex)

  const double start_viol = bal.violation();
  const weight_t start_cut = cut;
  double best_viol = start_viol;
  weight_t best_cut = cut;
  std::size_t best_prefix = 0;
  weight_t cur_cut = cut;
  index_t count[2] = {0, 0};
  for (index_t v = 0; v < n; ++v) ++count[side[static_cast<std::size_t>(v)]];

  auto pop_valid = [&](int s) -> index_t {
    while (!heap[s].empty()) {
      const auto [gv, v] = heap[s].top();
      if (locked[static_cast<std::size_t>(v)] || side[static_cast<std::size_t>(v)] != s ||
          gain[static_cast<std::size_t>(v)] != gv) {
        heap[s].pop();
        continue;
      }
      return v;
    }
    return kInvalidIndex;
  };

  while (moved.size() < static_cast<std::size_t>(n)) {
    const double cur_viol = bal.violation();
    int pick = -1;
    index_t picked_vertex = kInvalidIndex;

    if (cur_viol > 1e-12) {
      // Balance-repair mode: dig into the overloaded side's heap for the
      // best-gain vertex that actually carries weight in the violated
      // constraint (the key difference to a plain gain-ordered FM, and what
      // lets the hypergraph engine honour tight final_imbal values).
      const auto [side_over, con] = bal.worst_excess();
      std::vector<Entry> skipped;
      while (skipped.size() < 1024) {
        const index_t v = pop_valid(side_over);
        if (v == kInvalidIndex || count[side_over] <= 1) break;
        heap[side_over].pop();
        if (h.vwgt(v, con) > 0) {
          bal.apply_move(h, v, side_over == 1);
          const double nv = bal.violation();
          bal.apply_move(h, v, side_over == 0);
          if (nv < cur_viol - 1e-15) {
            pick = side_over;
            picked_vertex = v;
            break;
          }
        }
        skipped.emplace_back(gain[static_cast<std::size_t>(v)], v);
      }
      for (const auto& e : skipped) heap[side_over].push(e);
    }

    if (pick < 0) {
      // Cut-improvement mode: best admissible gain from either side.
      index_t cand[2] = {pop_valid(0), pop_valid(1)};
      double pick_viol = 0;
      weight_t pick_gain = 0;
      for (int s = 0; s < 2; ++s) {
        const index_t v = cand[s];
        if (v == kInvalidIndex || count[s] <= 1) continue;
        bal.apply_move(h, v, s == 1);
        const double nv = bal.violation();
        bal.apply_move(h, v, s == 0);
        const bool admissible = nv <= cur_viol + 1e-12 || nv == 0.0;
        const bool better = pick == -1 || nv < pick_viol - 1e-12 ||
                            (std::abs(nv - pick_viol) <= 1e-12 && gain[static_cast<std::size_t>(v)] > pick_gain);
        if (admissible && better) {
          pick = s;
          picked_vertex = v;
          pick_viol = nv;
          pick_gain = gain[static_cast<std::size_t>(v)];
        }
      }
      if (pick >= 0) heap[pick].pop();
    }
    if (pick < 0) break;

    const index_t v = picked_vertex;
    locked[static_cast<std::size_t>(v)] = 1;
    bal.apply_move(h, v, pick == 1);
    cur_cut -= gain[static_cast<std::size_t>(v)];
    const int from = pick;
    side[static_cast<std::size_t>(v)] = static_cast<std::uint8_t>(1 - from);
    --count[from];
    ++count[1 - from];
    moved.push_back(v);

    // Delta-gain update: a net shifts the gains of its unlocked pins only
    // when a side's pin count crosses 0 or 1. Every vertex whose gain ends up
    // changed is pushed once, with its final gain.
    touched.clear();
    for (index_t net : h.nets_of(v)) {
      auto& po = pins_on[static_cast<std::size_t>(net)];
      const std::array<index_t, 2> before = po;
      --po[static_cast<std::size_t>(from)];
      ++po[static_cast<std::size_t>(1 - from)];
      const weight_t c = h.net_cost(net);
      const weight_t delta[2] = {net_gain(po, 0, c) - net_gain(before, 0, c),
                                 net_gain(po, 1, c) - net_gain(before, 1, c)};
      if (delta[0] == 0 && delta[1] == 0) continue;
      for (index_t u : h.pins(net)) {
        if (u == v || locked[static_cast<std::size_t>(u)]) continue;
        if (!touched_mark[static_cast<std::size_t>(u)]) {
          touched_mark[static_cast<std::size_t>(u)] = 1;
          touched.emplace_back(gain[static_cast<std::size_t>(u)], u);
        }
        gain[static_cast<std::size_t>(u)] += delta[side[static_cast<std::size_t>(u)]];
      }
    }
    for (const auto& [g_old, u] : touched) {
      touched_mark[static_cast<std::size_t>(u)] = 0;
      if (gain[static_cast<std::size_t>(u)] != g_old)
        heap[side[static_cast<std::size_t>(u)]].emplace(gain[static_cast<std::size_t>(u)], u);
    }

    const double viol_now = bal.violation();
    if (viol_now < best_viol - 1e-12 ||
        (std::abs(viol_now - best_viol) <= 1e-12 && cur_cut < best_cut)) {
      best_viol = viol_now;
      best_cut = cur_cut;
      best_prefix = moved.size();
    }
  }

  for (std::size_t i = moved.size(); i > best_prefix; --i) {
    const index_t v = moved[i - 1];
    const int s = side[static_cast<std::size_t>(v)];
    bal.apply_move(h, v, s == 1);
    side[static_cast<std::size_t>(v)] = static_cast<std::uint8_t>(1 - s);
  }
  cut = best_cut;
  return best_viol < start_viol - 1e-12 ||
         (std::abs(best_viol - start_viol) <= 1e-12 && best_cut < start_cut);
}

std::vector<std::uint8_t> hg_greedy_grow(const Hypergraph& h, double frac0, Rng& rng) {
  const index_t n = h.num_vertices();
  std::vector<std::uint8_t> side(static_cast<std::size_t>(n), 1);
  const int ncon = h.num_constraints();
  const auto total = h.total_weights();

  auto fill = [&](const std::vector<weight_t>& w0) {
    double f = 0;
    int active = 0;
    for (int c = 0; c < ncon; ++c) {
      if (total[static_cast<std::size_t>(c)] == 0) continue;
      f += static_cast<double>(w0[static_cast<std::size_t>(c)]) / static_cast<double>(total[static_cast<std::size_t>(c)]);
      ++active;
    }
    return active ? f / active : 1.0;
  };

  std::vector<weight_t> w0(static_cast<std::size_t>(ncon), 0);
  std::vector<index_t> queue;
  std::vector<std::uint8_t> visited(static_cast<std::size_t>(n), 0);
  std::size_t head = 0;
  auto enqueue = [&](index_t v) {
    if (!visited[static_cast<std::size_t>(v)]) {
      visited[static_cast<std::size_t>(v)] = 1;
      queue.push_back(v);
    }
  };
  enqueue(static_cast<index_t>(rng.uniform(static_cast<std::uint64_t>(n))));

  while (fill(w0) < frac0) {
    if (head == queue.size()) {
      index_t next = kInvalidIndex;
      for (index_t v = 0; v < n; ++v)
        if (!visited[static_cast<std::size_t>(v)]) {
          next = v;
          break;
        }
      if (next == kInvalidIndex) break;
      enqueue(next);
    }
    const index_t v = queue[head++];
    side[static_cast<std::size_t>(v)] = 0;
    for (int c = 0; c < ncon; ++c) w0[static_cast<std::size_t>(c)] += h.vwgt(v, c);
    for (index_t net : h.nets_of(v))
      for (index_t u : h.pins(net)) enqueue(u);
  }
  if (std::all_of(side.begin(), side.end(), [](std::uint8_t s) { return s == 0; }))
    side[static_cast<std::size_t>(queue.back())] = 1;
  if (std::all_of(side.begin(), side.end(), [](std::uint8_t s) { return s == 1; }))
    side[static_cast<std::size_t>(queue.front())] = 0;
  return side;
}

std::vector<std::uint8_t> hg_initial_bisect(const Hypergraph& h, double frac0,
                                            const MultilevelConfig& cfg, Rng& rng) {
  std::vector<std::uint8_t> best;
  double best_viol = 0;
  weight_t best_cut = 0;
  for (int attempt = 0; attempt < cfg.init_tries; ++attempt) {
    auto side = hg_greedy_grow(h, frac0, rng);
    HgBalance bal;
    bal.init(h, frac0, cfg.eps);
    for (index_t v = 0; v < h.num_vertices(); ++v)
      if (side[static_cast<std::size_t>(v)] == 0) bal.apply_move(h, v, true);
    weight_t cut = hg_cut2(h, side);
    for (int pass = 0; pass < cfg.fm_passes; ++pass)
      if (!hg_fm_pass(h, side, bal, cut)) break;
    const double viol = bal.violation();
    if (best.empty() || viol < best_viol - 1e-12 ||
        (std::abs(viol - best_viol) <= 1e-12 && cut < best_cut)) {
      best = std::move(side);
      best_viol = viol;
      best_cut = cut;
    }
  }
  return best;
}

/// Coarsening must stop while *every* constraint still has enough carrier
/// vertices to split at the requested fraction; otherwise the initial
/// partition is forced infeasible and the repair moves wreck the cut
/// geometry (tight one-hot constraints are the hard case — cf. PaToH's
/// multi-constraint handling).
bool hg_coarse_enough(const Hypergraph& h, const MultilevelConfig& cfg) {
  if (h.num_vertices() <= cfg.coarsen_to) return true;
  const int ncon = h.num_constraints();
  if (ncon <= 1) return false;
  std::vector<index_t> carriers(static_cast<std::size_t>(ncon), 0);
  for (index_t v = 0; v < h.num_vertices(); ++v)
    for (int c = 0; c < ncon; ++c)
      if (h.vwgt(v, c) > 0) ++carriers[static_cast<std::size_t>(c)];
  constexpr index_t kMinCarriers = 48;
  for (index_t cnt : carriers)
    if (cnt > 0 && cnt < kMinCarriers) return true;
  return false;
}

std::vector<std::uint8_t> hg_bisect_recursive(const Hypergraph& h, double frac0,
                                              const MultilevelConfig& cfg, Rng& rng) {
  if (hg_coarse_enough(h, cfg)) return hg_initial_bisect(h, frac0, cfg, rng);

  HgCoarseLevel lvl = hg_coarsen_once(h, rng);
  std::vector<std::uint8_t> side;
  if (lvl.hg.num_vertices() >= static_cast<index_t>(0.95 * static_cast<double>(h.num_vertices()))) {
    side = hg_initial_bisect(h, frac0, cfg, rng);
  } else {
    const auto coarse_side = hg_bisect_recursive(lvl.hg, frac0, cfg, rng);
    side.resize(static_cast<std::size_t>(h.num_vertices()));
    for (index_t v = 0; v < h.num_vertices(); ++v)
      side[static_cast<std::size_t>(v)] = coarse_side[static_cast<std::size_t>(lvl.cmap[static_cast<std::size_t>(v)])];
  }

  HgBalance bal;
  bal.init(h, frac0, cfg.eps);
  for (index_t v = 0; v < h.num_vertices(); ++v)
    if (side[static_cast<std::size_t>(v)] == 0) bal.apply_move(h, v, true);
  weight_t cut = hg_cut2(h, side);
  for (int pass = 0; pass < cfg.fm_passes; ++pass)
    if (!hg_fm_pass(h, side, bal, cut)) break;
  return side;
}

/// Sub-hypergraph induced by `vertices`; nets keep pins inside the set, nets
/// with fewer than 2 remaining pins are dropped.
std::pair<Hypergraph, std::vector<index_t>> hg_induced(const Hypergraph& h,
                                                       std::span<const index_t> vertices) {
  std::vector<index_t> to_sub(static_cast<std::size_t>(h.num_vertices()), kInvalidIndex);
  std::vector<index_t> to_orig(vertices.begin(), vertices.end());
  for (std::size_t i = 0; i < to_orig.size(); ++i)
    to_sub[static_cast<std::size_t>(to_orig[i])] = static_cast<index_t>(i);

  std::vector<index_t> offsets = {0};
  std::vector<index_t> pins;
  std::vector<weight_t> costs;
  std::vector<index_t> tmp;
  for (index_t net = 0; net < h.num_nets(); ++net) {
    tmp.clear();
    for (index_t v : h.pins(net)) {
      const index_t sv = to_sub[static_cast<std::size_t>(v)];
      if (sv != kInvalidIndex) tmp.push_back(sv);
    }
    if (tmp.size() < 2) continue;
    pins.insert(pins.end(), tmp.begin(), tmp.end());
    offsets.push_back(static_cast<index_t>(pins.size()));
    costs.push_back(h.net_cost(net));
  }

  Hypergraph sub(static_cast<index_t>(to_orig.size()), std::move(offsets), std::move(pins),
                 std::move(costs));
  const int ncon = h.num_constraints();
  std::vector<weight_t> vw(to_orig.size() * static_cast<std::size_t>(ncon));
  for (std::size_t i = 0; i < to_orig.size(); ++i)
    for (int c = 0; c < ncon; ++c)
      vw[i * static_cast<std::size_t>(ncon) + static_cast<std::size_t>(c)] = h.vwgt(to_orig[i], c);
  sub.set_vertex_weights(std::move(vw), ncon);
  return {std::move(sub), std::move(to_orig)};
}

void hg_recurse_kway(const Hypergraph& h, std::span<const index_t> to_orig, rank_t k,
                     rank_t part_base, std::span<const double> part_share,
                     const MultilevelConfig& cfg, Rng& rng, std::vector<rank_t>& out) {
  if (k == 1) {
    for (index_t v : to_orig) out[static_cast<std::size_t>(v)] = part_base;
    return;
  }
  const rank_t k0 = (k + 1) / 2;
  double frac0 = static_cast<double>(k0) / static_cast<double>(k);
  if (!part_share.empty()) {
    const auto first = part_share.begin() + part_base;
    frac0 = std::accumulate(first, first + k0, 0.0) / std::accumulate(first, first + k, 0.0);
  }
  // cfg.eps applies per bisection (PaToH's final_imbal semantics): the
  // end-to-end Eq. 21 imbalance compounds mildly across the log2(K) levels,
  // which is exactly the behaviour of the paper's Fig. 7 (0.05 -> 11-19%
  // total, 0.01 -> 2-7% total). The graph strategies pass a tightened eps.
  const auto side = hg_bisect_recursive(h, frac0, cfg, rng);

  std::vector<index_t> v0, v1;
  for (index_t v = 0; v < h.num_vertices(); ++v)
    (side[static_cast<std::size_t>(v)] == 0 ? v0 : v1).push_back(v);
  LTS_CHECK(!v0.empty() && !v1.empty());

  auto [h0, m0] = hg_induced(h, v0);
  auto [h1, m1] = hg_induced(h, v1);
  for (auto& v : m0) v = to_orig[static_cast<std::size_t>(v)];
  for (auto& v : m1) v = to_orig[static_cast<std::size_t>(v)];

  Rng rng0 = rng.fork();
  Rng rng1 = rng.fork();
  hg_recurse_kway(h0, m0, k0, part_base, part_share, cfg, rng0, out);
  hg_recurse_kway(h1, m1, k - k0, part_base + k0, part_share, cfg, rng1, out);
}

} // namespace

std::vector<std::uint8_t> hg_multilevel_bisect(const Hypergraph& h, double frac0,
                                               const MultilevelConfig& cfg) {
  LTS_CHECK(h.num_vertices() >= 2);
  LTS_CHECK(frac0 > 0 && frac0 < 1);
  Rng rng(cfg.seed);
  return hg_bisect_recursive(h, frac0, cfg, rng);
}

Partition hg_recursive_bisection(const Hypergraph& h, rank_t k, const MultilevelConfig& cfg,
                                 std::span<const double> part_share) {
  LTS_CHECK(k >= 1);
  LTS_CHECK_MSG(h.num_vertices() >= k, "fewer vertices than parts");
  LTS_CHECK(part_share.empty() || part_share.size() == static_cast<std::size_t>(k));
  for (const double s : part_share) LTS_CHECK_MSG(s > 0, "part share " << s << " is not positive");
  Partition p;
  p.num_parts = k;
  p.part.assign(static_cast<std::size_t>(h.num_vertices()), 0);
  std::vector<index_t> ids(static_cast<std::size_t>(h.num_vertices()));
  std::iota(ids.begin(), ids.end(), 0);
  Rng rng(cfg.seed);
  hg_recurse_kway(h, ids, k, 0, part_share, cfg, rng, p.part);
  return p;
}

} // namespace ltswave::partition
