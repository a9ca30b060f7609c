#include "layers.hpp"

#include <algorithm>
#include <sstream>

#include "algo/portfolio.hpp"
#include "approx/solve54.hpp"
#include "core/bounds.hpp"
#include "core/packing.hpp"
#include "service/canonical.hpp"
#include "service/frame_codec.hpp"
#include "service/wire.hpp"
#include "stats.hpp"
#include "util/json_row.hpp"

namespace e2e {

namespace {

using dsp::ProfileBackendKind;

constexpr double kMs = 1e3;
constexpr double kUs = 1e6;

[[nodiscard]] double nanos_to_s(std::uint64_t nanos) {
  return static_cast<double>(nanos) * 1e-9;
}

}  // namespace

LayerProbes::LayerProbes() {
  for (const dsp::algo::NamedAlgorithm& member :
       dsp::algo::baseline_portfolio(ProfileBackendKind::kDense)) {
    member_names_.push_back(member.name);
  }
  member_s_.assign(member_names_.size(), 0.0);
  unique_wins_.assign(member_names_.size(), 0.0);
}

void LayerProbes::probe_service(SpanRecorder* recorder,
                                std::uint64_t request_id,
                                const dsp::Instance& request,
                                const dsp::service::SolveResponse& response) {
  namespace service = dsp::service;
  {
    // Both directions of one round trip: the request record out and back
    // in (what client and daemon do to it), then the solve_ok payload.
    Span span(recorder, "service.codec", "service", request_id);
    std::ostringstream out;
    service::save_instance(out, service::WireInstance::from_instance(request),
                           service::WireFormat::kBinary);
    std::istringstream in(out.str());
    const service::WireInstance decoded = service::load_instance(in);
    const service::SolveResponse echoed = service::frame::decode_solve_ok(
        service::frame::encode_solve_ok(response), "probe");
    codec_us_.push_back(span.close() * kUs);
    (void)decoded;
    (void)echoed;
  }
  {
    Span span(recorder, "service.canonicalize", "service", request_id);
    const service::CanonicalForm form = service::canonicalize(request);
    (void)service::canonical_hash(form.instance);
    canonicalize_us_.push_back(span.close() * kUs);
  }
}

SolverProbe LayerProbes::probe_solver(SpanRecorder* recorder,
                                      std::uint64_t request_id,
                                      const dsp::Instance& canonical,
                                      const std::string& group) {
  Span probes(recorder, "solver-probes", "bench", request_id);
  ++solves_;

  Span lb_span(recorder, "core.lower_bound", "core", request_id);
  const dsp::Height lower_bound = dsp::combined_lower_bound(canonical);
  const double lb_s = lb_span.close();
  lower_bound_us_.push_back(lb_s * kUs);
  lower_bound_s_ += lb_s;

  const ProfileBackendKind picked = dsp::resolve_backend(
      ProfileBackendKind::kAuto, canonical.strip_width(), canonical.size());
  const ProfileBackendKind other = picked == ProfileBackendKind::kDense
                                       ? ProfileBackendKind::kSparse
                                       : ProfileBackendKind::kDense;
  if (picked == ProfileBackendKind::kSparse) sparse_picks_ += 1.0;

  // The witness portfolio, member by member, on the backend kAuto picks.
  std::vector<dsp::Height> peaks;
  double portfolio_s = 0.0;
  double first_fit_s = 0.0;
  {
    Span portfolio(recorder, "algo.portfolio", "algo", request_id);
    const std::vector<dsp::algo::NamedAlgorithm> members =
        dsp::algo::baseline_portfolio(picked);
    for (std::size_t m = 0; m < members.size(); ++m) {
      Span member(recorder, "algo." + members[m].name, "algo", request_id);
      const dsp::Packing packing = members[m].run(canonical);
      peaks.push_back(dsp::peak_height(canonical, packing));
      const double member_s = member.close();
      if (m < member_s_.size()) member_s_[m] += member_s;
      if (members[m].name == "first-fit") first_fit_s += member_s;
    }
    portfolio_s = portfolio.close();
  }
  portfolio_ms_.push_back(portfolio_s * kMs);
  portfolio_s_ += portfolio_s;

  const dsp::Height witness = *std::min_element(peaks.begin(), peaks.end());
  if (std::count(peaks.begin(), peaks.end(), witness) == 1) {
    const auto winner = static_cast<std::size_t>(
        std::find(peaks.begin(), peaks.end(), witness) - peaks.begin());
    if (winner < unique_wins_.size()) unique_wins_[winner] += 1.0;
  }
  const auto at_lb = std::find(peaks.begin(), peaks.end(), lower_bound);
  if (at_lb != peaks.end()) {
    members_after_lb_ += static_cast<double>(peaks.end() - at_lb - 1);
  }
  witness_over_lb_ += ratio(static_cast<double>(witness),
                            static_cast<double>(lower_bound));

  // The same portfolio on the backend kAuto did not pick: auto_regret.
  double other_s = 0.0;
  {
    Span span(recorder, "core.other_backend", "core", request_id);
    (void)dsp::algo::best_of_portfolio(canonical, nullptr, other);
    other_s = span.close();
  }
  const double best_backend_s = std::min(portfolio_s, other_s);
  picked_s_ += portfolio_s;
  best_backend_s_ += best_backend_s;

  // The whole pipeline with default parameters.
  Span solve_span(recorder, "approx.solve54", "approx", request_id);
  const dsp::approx::Approx54Result result = dsp::approx::solve54(canonical);
  const double solve_s = solve_span.close();
  const dsp::approx::Approx54Report& report = result.report;
  solve54_ms_.push_back(solve_s * kMs);
  solve54_s_ += solve_s;
  step1_s_ += lb_s + portfolio_s;
  const double attempt_s = nanos_to_s(report.attempt_nanos);
  // What solve54's wall time holds beyond its step 1 and its attempts:
  // the per-call pool's spawn, join and first-touch costs.
  runtime_self_s_ += std::max(0.0, solve_s - std::max(lb_s + portfolio_s, attempt_s));
  attempts_ += static_cast<double>(report.attempts);
  rounds_ += static_cast<double>(report.rounds);
  attempt_s_ += attempt_s;
  if (report.upper_bound == report.lower_bound) witness_at_lb_ += 1.0;
  pipeline_over_lb_ += ratio(static_cast<double>(report.pipeline_peak),
                             static_cast<double>(report.lower_bound));
  if (report.pipeline_peak < report.upper_bound) pipeline_wins_ += 1.0;
  if (report.lp_used) lp_used_ += 1.0;
  pricing_rounds_ += static_cast<double>(report.lp_pricing_rounds);
  pricing_s_ += nanos_to_s(report.pricing_nanos);
  lp_resolve_s_ += nanos_to_s(report.lp_resolve_nanos);

  // Rows: the probe's own group, and every probe of the same strip width.
  for (Group* row : {&groups_[group],
                     &groups_["W=" + std::to_string(canonical.strip_width())]}) {
    ++row->solves;
    row->picked = std::string(dsp::to_string(picked));
    row->solve54_ms.push_back(solve_s * kMs);
    row->portfolio_ms.push_back(portfolio_s * kMs);
    row->picked_s += portfolio_s;
    row->best_backend_s += best_backend_s;
    row->first_fit_s += first_fit_s;
    row->members_s += portfolio_s;
    row->step1_s += lb_s + portfolio_s;
    row->solve54_s += solve_s;
  }
  return SolverProbe{result.peak, solve_s};
}

void LayerProbes::served(double seconds, dsp::service::CacheOutcome outcome,
                         double service_self_seconds) {
  ++requests_;
  if (outcome == dsp::service::CacheOutcome::kHit) {
    hit_us_.push_back(seconds * kUs);
  } else if (outcome == dsp::service::CacheOutcome::kMiss) {
    miss_us_.push_back(seconds * kUs);
    ++missed_requests_;
  }
  service_self_s_ += service_self_seconds;
}

void LayerProbes::set_runtime(double tasks_per_request,
                              double steals_per_request) {
  tasks_per_request_ = tasks_per_request;
  steals_per_request_ = steals_per_request;
}

void LayerProbes::set_cache(const dsp::service::CacheStats& delta) {
  cache_ = delta;
}

void LayerProbes::set_overhead(double traced_p50_seconds,
                               double untraced_p50_seconds) {
  overhead_ratio_ = ratio(traced_p50_seconds, untraced_p50_seconds);
}

std::vector<Metric> LayerProbes::metrics() const {
  const double solves = static_cast<double>(solves_);
  const double requests = static_cast<double>(requests_);
  // Solver probes run once per distinct solved instance; the share of
  // requests that were misses scales their per-solve cost to per-request.
  const double solves_per_request =
      ratio(static_cast<double>(missed_requests_), requests);
  const auto per_request_ms = [&](double solver_seconds) {
    return ratio(solver_seconds, solves) * solves_per_request * kMs;
  };
  const double lookups = static_cast<double>(cache_.hits + cache_.misses +
                                             cache_.inflight_joins);
  double members_total = 0.0;
  for (const double s : member_s_) members_total += s;

  std::vector<Metric> out = {
      {"service.codec_us_p50", quantile(codec_us_, 0.5), "us"},
      {"service.canonicalize_us_p50", quantile(canonicalize_us_, 0.5), "us"},
      {"service.hit_rtt_us_p50", quantile(hit_us_, 0.5), "us"},
      {"service.hit_rtt_us_p99", quantile(hit_us_, 0.99), "us"},
      {"service.miss_rtt_us_p50", quantile(miss_us_, 0.5), "us"},
      {"service.miss_rtt_us_p99", quantile(miss_us_, 0.99), "us"},
      {"service.hit_rate", ratio(static_cast<double>(cache_.hits), lookups), "ratio"},
      {"service.evictions", static_cast<double>(cache_.evictions), "count"},
      {"service.inflight_joins", static_cast<double>(cache_.inflight_joins), "count"},
      {"service.self_ms", ratio(service_self_s_, requests) * kMs, "ms"},
      {"runtime.tasks_per_request", tasks_per_request_, "count"},
      {"runtime.steals_per_request", steals_per_request_, "count"},
      {"runtime.self_ms", per_request_ms(runtime_self_s_), "ms"},
      {"approx.solve54_ms_p50", quantile(solve54_ms_, 0.5), "ms"},
      {"approx.step1_share", ratio(step1_s_, solve54_s_), "ratio"},
      {"approx.attempts_per_solve", ratio(attempts_, solves), "count"},
      {"approx.rounds_per_solve", ratio(rounds_, solves), "count"},
      {"approx.attempt_ms_per_solve", ratio(attempt_s_, solves) * kMs, "ms"},
      {"approx.witness_at_lb_share", ratio(witness_at_lb_, solves), "ratio"},
      {"approx.pipeline_over_lb", ratio(pipeline_over_lb_, solves), "ratio"},
      {"approx.pipeline_wins", pipeline_wins_, "count"},
      {"approx.self_ms", per_request_ms(attempt_s_ - lp_resolve_s_), "ms"},
      {"lp.used_share", ratio(lp_used_, solves), "ratio"},
      {"lp.pricing_rounds_per_solve", ratio(pricing_rounds_, solves), "count"},
      {"lp.pricing_ms_per_solve", ratio(pricing_s_, solves) * kMs, "ms"},
      {"lp.resolve_ms_per_solve", ratio(lp_resolve_s_, solves) * kMs, "ms"},
      {"algo.portfolio_ms_p50", quantile(portfolio_ms_, 0.5), "ms"},
  };
  for (std::size_t m = 0; m < member_names_.size(); ++m) {
    out.push_back({"algo.member_share." + member_names_[m],
                   ratio(member_s_[m], members_total), "ratio"});
  }
  for (std::size_t m = 0; m < member_names_.size(); ++m) {
    out.push_back({"algo.member_unique_wins." + member_names_[m],
                   unique_wins_[m], "count"});
  }
  const std::vector<Metric> tail = {
      {"algo.members_after_lb", ratio(members_after_lb_, solves), "count"},
      {"algo.witness_over_lb", ratio(witness_over_lb_, solves), "ratio"},
      {"algo.self_ms", per_request_ms(portfolio_s_), "ms"},
      {"core.lower_bound_us_p50", quantile(lower_bound_us_, 0.5), "us"},
      {"core.sparse_share", ratio(sparse_picks_, solves), "ratio"},
      {"core.auto_regret", ratio(picked_s_, best_backend_s_), "ratio"},
      {"core.self_ms", per_request_ms(lower_bound_s_), "ms"},
      {"trace.overhead_ratio", overhead_ratio_, "ratio"},
  };
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

std::vector<std::string> LayerProbes::group_rows() const {
  std::vector<std::string> rows;
  for (const auto& [name, group] : groups_) {
    std::ostringstream line;
    dsp::JsonRow()
        .field("row", "layers")
        .field("group", name)
        .field("solves", group.solves)
        .field("backend", group.picked)
        .field("solve54_ms_p50", quantile(group.solve54_ms, 0.5))
        .field("portfolio_ms_p50", quantile(group.portfolio_ms, 0.5))
        .field("step1_share", ratio(group.step1_s, group.solve54_s))
        .field("first_fit_share", ratio(group.first_fit_s, group.members_s))
        .field("auto_regret", ratio(group.picked_s, group.best_backend_s))
        .print(line);
    rows.push_back(line.str());
  }
  return rows;
}

}  // namespace e2e
