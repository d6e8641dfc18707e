#include "mapping/matching.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>

namespace tlbmap {

std::vector<std::pair<int, int>> MatchingResult::pairs() const {
  std::vector<std::pair<int, int>> out;
  for (int v = 0; v < static_cast<int>(mate.size()); ++v) {
    if (mate[v] > v) out.emplace_back(v, mate[v]);
  }
  return out;
}

namespace {

// Edmonds' blossom algorithm for maximum weight matching, primal-dual O(n^3)
// formulation. Vertices are 1..n; ids n+1..2n denote contracted blossoms.
// Internally weights are doubled so every dual adjustment stays integral.
class BlossomMatcher {
 public:
  explicit BlossomMatcher(const WeightMatrix& w)
      : n_(static_cast<int>(w.size())), max_v_(2 * n_ + 1) {
    g_.assign(static_cast<std::size_t>(max_v_),
              std::vector<Edge>(static_cast<std::size_t>(max_v_)));
    flower_from_.assign(static_cast<std::size_t>(max_v_),
                        std::vector<int>(static_cast<std::size_t>(n_ + 1), 0));
    flower_.assign(static_cast<std::size_t>(max_v_), {});
    lab_.assign(static_cast<std::size_t>(max_v_), 0);
    match_.assign(static_cast<std::size_t>(max_v_), 0);
    slack_.assign(static_cast<std::size_t>(max_v_), 0);
    st_.assign(static_cast<std::size_t>(max_v_), 0);
    pa_.assign(static_cast<std::size_t>(max_v_), 0);
    s_.assign(static_cast<std::size_t>(max_v_), -1);
    vis_.assign(static_cast<std::size_t>(max_v_), 0);
    for (int u = 1; u <= n_; ++u) {
      for (int v = 1; v <= n_; ++v) {
        g_[u][v] = Edge{u, v, 0};
      }
    }
    for (int u = 1; u <= n_; ++u) {
      for (int v = 1; v <= n_; ++v) {
        if (u != v) {
          g_[u][v].w = 2 * w[static_cast<std::size_t>(u - 1)]
                            [static_cast<std::size_t>(v - 1)];
        }
      }
    }
  }

  /// Runs the algorithm; returns mate[] in 0-based form (-1 = unmatched).
  std::vector<int> solve() {
    n_x_ = n_;
    for (int u = 0; u <= n_; ++u) {
      st_[u] = u;
      flower_[u].clear();
    }
    std::int64_t w_max = 0;
    for (int u = 1; u <= n_; ++u) {
      for (int v = 1; v <= n_; ++v) {
        flower_from_[u][v] = (u == v ? u : 0);
        w_max = std::max(w_max, g_[u][v].w);
      }
    }
    for (int u = 1; u <= n_; ++u) lab_[u] = w_max;
    while (matching()) {
    }
    std::vector<int> mate(static_cast<std::size_t>(n_), -1);
    for (int u = 1; u <= n_; ++u) {
      if (match_[u] != 0) mate[static_cast<std::size_t>(u - 1)] = match_[u] - 1;
    }
    return mate;
  }

 private:
  struct Edge {
    int u = 0, v = 0;
    std::int64_t w = 0;
  };

  // Reduced cost of an edge under the current duals (0 = tight).
  std::int64_t e_delta(const Edge& e) const {
    return lab_[e.u] + lab_[e.v] - g_[e.u][e.v].w;
  }

  void update_slack(int u, int x) {
    if (slack_[x] == 0 || e_delta(g_[u][x]) < e_delta(g_[slack_[x]][x])) {
      slack_[x] = u;
    }
  }

  void set_slack(int x) {
    slack_[x] = 0;
    for (int u = 1; u <= n_; ++u) {
      if (g_[u][x].w > 0 && st_[u] != x && s_[st_[u]] == 0) {
        update_slack(u, x);
      }
    }
  }

  void q_push(int x) {
    if (x <= n_) {
      q_.push_back(x);
      return;
    }
    for (int i : flower_[x]) q_push(i);
  }

  void set_st(int x, int b) {
    st_[x] = b;
    if (x > n_) {
      for (int i : flower_[x]) set_st(i, b);
    }
  }

  int get_pr(int b, int xr) {
    auto& f = flower_[b];
    const int pr = static_cast<int>(
        std::find(f.begin(), f.end(), xr) - f.begin());
    if (pr % 2 == 1) {
      std::reverse(f.begin() + 1, f.end());
      return static_cast<int>(f.size()) - pr;
    }
    return pr;
  }

  void set_match(int u, int v) {
    match_[u] = g_[u][v].v;
    if (u <= n_) return;
    const Edge e = g_[u][v];
    const int xr = flower_from_[u][e.u];
    const int pr = get_pr(u, xr);
    auto& f = flower_[u];
    for (int i = 0; i < pr; ++i) set_match(f[static_cast<std::size_t>(i)],
                                           f[static_cast<std::size_t>(i ^ 1)]);
    set_match(xr, v);
    std::rotate(f.begin(), f.begin() + pr, f.end());
  }

  void augment(int u, int v) {
    for (;;) {
      const int xnv = st_[match_[u]];
      set_match(u, v);
      if (xnv == 0) return;
      set_match(xnv, st_[pa_[xnv]]);
      u = st_[pa_[xnv]];
      v = xnv;
    }
  }

  int get_lca(int u, int v) {
    for (++timestamp_; u != 0 || v != 0; std::swap(u, v)) {
      if (u == 0) continue;
      if (vis_[u] == timestamp_) return u;
      vis_[u] = timestamp_;
      u = st_[match_[u]];
      if (u != 0) u = st_[pa_[u]];
    }
    return 0;
  }

  void add_blossom(int u, int lca, int v) {
    int b = n_ + 1;
    while (b <= n_x_ && st_[b] != 0) ++b;
    if (b > n_x_) ++n_x_;
    lab_[b] = 0;
    s_[b] = 0;
    match_[b] = match_[lca];
    flower_[b].clear();
    flower_[b].push_back(lca);
    for (int x = u, y; x != lca; x = st_[pa_[y]]) {
      flower_[b].push_back(x);
      flower_[b].push_back(y = st_[match_[x]]);
      q_push(y);
    }
    std::reverse(flower_[b].begin() + 1, flower_[b].end());
    for (int x = v, y; x != lca; x = st_[pa_[y]]) {
      flower_[b].push_back(x);
      flower_[b].push_back(y = st_[match_[x]]);
      q_push(y);
    }
    set_st(b, b);
    for (int x = 1; x <= n_x_; ++x) g_[b][x].w = g_[x][b].w = 0;
    for (int x = 1; x <= n_; ++x) flower_from_[b][x] = 0;
    for (const int xs : flower_[b]) {
      for (int x = 1; x <= n_x_; ++x) {
        if (g_[b][x].w == 0 || e_delta(g_[xs][x]) < e_delta(g_[b][x])) {
          g_[b][x] = g_[xs][x];
          g_[x][b] = g_[x][xs];
        }
      }
      for (int x = 1; x <= n_; ++x) {
        if (flower_from_[xs][x] != 0) flower_from_[b][x] = xs;
      }
    }
    set_slack(b);
  }

  void expand_blossom(int b) {
    for (const int i : flower_[b]) set_st(i, i);
    const int xr = flower_from_[b][g_[b][pa_[b]].u];
    const int pr = get_pr(b, xr);
    auto& f = flower_[b];
    for (int i = 0; i < pr; i += 2) {
      const int xs = f[static_cast<std::size_t>(i)];
      const int xns = f[static_cast<std::size_t>(i + 1)];
      pa_[xs] = g_[xns][xs].u;
      s_[xs] = 1;
      s_[xns] = 0;
      slack_[xs] = 0;
      set_slack(xns);
      q_push(xns);
    }
    s_[xr] = 1;
    pa_[xr] = pa_[b];
    for (std::size_t i = static_cast<std::size_t>(pr) + 1; i < f.size(); ++i) {
      s_[f[i]] = -1;
      set_slack(f[i]);
    }
    st_[b] = 0;
  }

  bool on_found_edge(const Edge& e) {
    const int u = st_[e.u];
    const int v = st_[e.v];
    if (s_[v] == -1) {
      pa_[v] = e.u;
      s_[v] = 1;
      const int nu = st_[match_[v]];
      slack_[v] = slack_[nu] = 0;
      s_[nu] = 0;
      q_push(nu);
    } else if (s_[v] == 0) {
      const int lca = get_lca(u, v);
      if (lca == 0) {
        augment(u, v);
        augment(v, u);
        return true;
      }
      add_blossom(u, lca, v);
    }
    return false;
  }

  bool matching() {
    std::fill(s_.begin(), s_.begin() + n_x_ + 1, -1);
    std::fill(slack_.begin(), slack_.begin() + n_x_ + 1, 0);
    q_.clear();
    for (int x = 1; x <= n_x_; ++x) {
      if (st_[x] == x && match_[x] == 0) {
        pa_[x] = 0;
        s_[x] = 0;
        q_push(x);
      }
    }
    if (q_.empty()) return false;
    for (;;) {
      while (!q_.empty()) {
        const int u = q_.front();
        q_.pop_front();
        if (s_[st_[u]] == 1) continue;
        for (int v = 1; v <= n_; ++v) {
          if (g_[u][v].w > 0 && st_[u] != st_[v]) {
            if (e_delta(g_[u][v]) == 0) {
              if (on_found_edge(g_[u][v])) return true;
            } else {
              update_slack(u, st_[v]);
            }
          }
        }
      }
      std::int64_t d = std::numeric_limits<std::int64_t>::max();
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b && s_[b] == 1) d = std::min(d, lab_[b] / 2);
      }
      for (int x = 1; x <= n_x_; ++x) {
        if (st_[x] == x && slack_[x] != 0) {
          if (s_[x] == -1) {
            d = std::min(d, e_delta(g_[slack_[x]][x]));
          } else if (s_[x] == 0) {
            d = std::min(d, e_delta(g_[slack_[x]][x]) / 2);
          }
        }
      }
      for (int u = 1; u <= n_; ++u) {
        if (s_[st_[u]] == 0) {
          if (lab_[u] <= d) return false;
          lab_[u] -= d;
        } else if (s_[st_[u]] == 1) {
          lab_[u] += d;
        }
      }
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b) {
          if (s_[b] == 0) {
            lab_[b] += d * 2;
          } else if (s_[b] == 1) {
            lab_[b] -= d * 2;
          }
        }
      }
      q_.clear();
      for (int x = 1; x <= n_x_; ++x) {
        if (st_[x] == x && slack_[x] != 0 && st_[slack_[x]] != x &&
            e_delta(g_[slack_[x]][x]) == 0) {
          if (on_found_edge(g_[slack_[x]][x])) return true;
        }
      }
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b && s_[b] == 1 && lab_[b] == 0) expand_blossom(b);
      }
    }
  }

  int n_;
  int max_v_;
  int n_x_ = 0;
  int timestamp_ = 0;
  std::vector<std::vector<Edge>> g_;
  std::vector<std::vector<int>> flower_from_;
  std::vector<std::vector<int>> flower_;
  std::vector<std::int64_t> lab_;
  std::vector<int> match_, slack_, st_, pa_, s_, vis_;
  std::deque<int> q_;
};

void validate_weights(const WeightMatrix& w) {
  const std::size_t n = w.size();
  if (n < 2 || n % 2 != 0) {
    throw std::invalid_argument(
        "max_weight_perfect_matching: need an even number of vertices >= 2");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (w[i].size() != n) {
      throw std::invalid_argument(
          "max_weight_perfect_matching: matrix not square");
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (w[i][j] < 0) {
        throw std::invalid_argument(
            "max_weight_perfect_matching: negative weight");
      }
      if (w[i][j] != w[j][i]) {
        throw std::invalid_argument(
            "max_weight_perfect_matching: matrix not symmetric");
      }
    }
  }
}

}  // namespace

MatchingResult max_weight_perfect_matching(const WeightMatrix& w) {
  validate_weights(w);
  const std::size_t n = w.size();

  // Force perfectness: add an offset so every edge is strictly positive and
  // a matching with more edges always beats one with fewer. The algorithm
  // maximises weight, so with offset >= (sum of all weights + 1) every
  // maximum-weight matching is perfect on a complete graph. Rescale first if
  // the raw counts are large enough to overflow the doubled arithmetic.
  std::int64_t sum = 0;
  std::int64_t maxw = 0;
  for (const auto& row : w) {
    for (std::int64_t x : row) {
      sum += x;
      maxw = std::max(maxw, x);
    }
  }
  WeightMatrix scaled = w;
  constexpr std::int64_t kSafeMax = std::int64_t{1} << 40;
  if (sum > kSafeMax) {
    const std::int64_t divisor = maxw / (kSafeMax / static_cast<std::int64_t>(n * n)) + 1;
    sum = 0;
    for (auto& row : scaled) {
      for (std::int64_t& x : row) {
        x /= divisor;
        sum += x;
      }
    }
  }
  const std::int64_t offset = sum + 1;
  WeightMatrix shifted = scaled;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) shifted[i][j] += offset;
    }
  }

  BlossomMatcher matcher(shifted);
  MatchingResult result;
  result.mate = matcher.solve();
  for (std::size_t v = 0; v < n; ++v) {
    if (result.mate[v] < 0) {
      throw std::logic_error(
          "max_weight_perfect_matching: matching is not perfect");
    }
    if (static_cast<std::size_t>(result.mate[v]) > v) {
      result.weight += w[v][static_cast<std::size_t>(result.mate[v])];
    }
  }
  return result;
}

}  // namespace tlbmap
