#include "core/tables.hpp"

#include "core/separator_bound.hpp"
#include "separator/separator.hpp"

namespace sysgo::core {

using topology::Family;

std::vector<Fig4Row> fig4_rows(const std::vector<int>& periods) {
  std::vector<Fig4Row> rows;
  rows.reserve(periods.size());
  for (int s : periods) {
    const double lam = lambda_star(s, Duplex::kHalf);
    rows.push_back({s, lam, e_coefficient(lam)});
  }
  return rows;
}

std::vector<Fig4Row> fig4_rows_paper() {
  return fig4_rows({3, 4, 5, 6, 7, 8, kUnboundedPeriod});
}

std::vector<std::pair<Family, int>> paper_family_list() {
  std::vector<std::pair<Family, int>> list;
  for (std::size_t i = 0; i < topology::kFamilyCount; ++i) {
    const auto f = static_cast<Family>(i);
    if (topology::family_has_separator_analysis(f))
      for (int d : {2, 3}) list.emplace_back(f, d);
  }
  return list;
}

namespace {

std::vector<TopologyBoundRow> topology_rows(const std::vector<int>& periods,
                                            Duplex duplex) {
  std::vector<TopologyBoundRow> rows;
  for (const auto& [family, d] : paper_family_list()) {
    TopologyBoundRow row;
    row.family = family;
    row.d = d;
    const auto params = separator::lemma31_params(family, d);
    row.alpha = params.alpha;
    row.ell = params.ell;
    row.e_by_period.reserve(periods.size());
    for (int s : periods)
      row.e_by_period.push_back(separator_bound(family, d, s, duplex).e);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

std::vector<TopologyBoundRow> fig5_rows(const std::vector<int>& periods) {
  return topology_rows(periods, Duplex::kHalf);
}

std::vector<Fig6Row> fig6_rows() {
  std::vector<Fig6Row> rows;
  for (const auto& [family, d] : paper_family_list()) {
    Fig6Row row;
    row.family = family;
    row.d = d;
    row.e_matrix = separator_bound(family, d, kUnboundedPeriod, Duplex::kHalf).e;
    row.e_diameter = diameter_coefficient(family, d);
    row.e_best = std::max(row.e_matrix, row.e_diameter);
    rows.push_back(row);
  }
  return rows;
}

std::vector<TopologyBoundRow> fig8_rows(const std::vector<int>& periods) {
  return topology_rows(periods, Duplex::kFull);
}

std::string period_label(int s) {
  return s == kUnboundedPeriod ? "inf" : std::to_string(s);
}

}  // namespace sysgo::core
