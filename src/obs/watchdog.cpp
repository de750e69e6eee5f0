#include "obs/watchdog.hpp"

#include <algorithm>
#include <utility>

#include "obs/json_fmt.hpp"
#include "obs/metrics_registry.hpp"

namespace redbud::obs {

using redbud::sim::SimTime;

double window_slope(const std::vector<double>& x_s,
                    const std::vector<double>& y, double from_s,
                    double until_s) {
  double n = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < x_s.size() && i < y.size(); ++i) {
    if (x_s[i] < from_s || x_s[i] > until_s) continue;
    n += 1;
    sx += x_s[i];
    sy += y[i];
    sxx += x_s[i] * x_s[i];
    sxy += x_s[i] * y[i];
  }
  const double det = n * sxx - sx * sx;
  return (n >= 2 && det > 0) ? (n * sxy - sx * sy) / det : 0.0;
}

const char* incident_kind_name(IncidentKind k) {
  switch (k) {
    case IncidentKind::kBacklogGrowth:
      return "backlog_growth";
    case IncidentKind::kRetryStorm:
      return "retry_storm";
    case IncidentKind::kCommitStall:
      return "commit_stall";
    case IncidentKind::kFailoverStall:
      return "failover_stall";
  }
  return "?";
}

namespace {

std::string base_of(const std::string& canonical) {
  const auto brace = canonical.find('{');
  return brace == std::string::npos ? canonical : canonical.substr(0, brace);
}

// Drop history entries older than the fit window, keeping the vectors
// aligned. Histories are a handful of entries (window / grid stride), so
// the front erase stays cheap.
void prune(std::vector<double>& t_s, std::vector<double>& v, double from_s) {
  std::size_t keep = 0;
  while (keep < t_s.size() && t_s[keep] < from_s) ++keep;
  if (keep > 0) {
    t_s.erase(t_s.begin(), t_s.begin() + std::ptrdiff_t(keep));
    v.erase(v.begin(), v.begin() + std::ptrdiff_t(keep));
  }
}

}  // namespace

void Watchdog::arm(DetectorParams params) {
  Detector d;
  d.params = std::move(params);
  detectors_.push_back(std::move(d));
}

Watchdog::Reading Watchdog::evaluate(Detector& d, SimTime now) const {
  Reading r;
  const DetectorParams& p = d.params;
  const double now_s = now.to_seconds();
  const double window_s = p.window.to_seconds();
  switch (p.kind) {
    case IncidentKind::kBacklogGrowth: {
      const double level = double(registry_->sum(p.series));
      d.hist_t_s.push_back(now_s);
      d.hist_v.push_back(level);
      prune(d.hist_t_s, d.hist_v, now_s - window_s);
      const double slope =
          window_slope(d.hist_t_s, d.hist_v, now_s - window_s, now_s);
      r.value = slope;
      r.breached = level >= p.floor && slope > p.threshold;
      if (r.breached) {
        r.target = p.series;
        r.evidence = "sum=" + fmt_double(level, 1) + " slope=" +
                     fmt_double(slope, 1) + "/s over " +
                     fmt_double(window_s * 1000.0, 0) + "ms (threshold " +
                     fmt_double(p.threshold, 1) + "/s, floor " +
                     fmt_double(p.floor, 1) + ")";
      }
      break;
    }
    case IncidentKind::kRetryStorm: {
      const double cum = double(registry_->sum(p.series));
      d.hist_t_s.push_back(now_s);
      d.hist_v.push_back(cum);
      prune(d.hist_t_s, d.hist_v, now_s - window_s);
      const double delta = cum - d.hist_v.front();
      r.value = delta;
      r.breached = delta >= p.threshold;
      if (r.breached) {
        r.target = p.series;
        r.evidence = "retransmits=" + fmt_double(delta, 0) + " in " +
                     fmt_double(window_s * 1000.0, 0) + "ms (threshold " +
                     fmt_double(p.threshold, 0) + ")";
      }
      break;
    }
    case IncidentKind::kCommitStall: {
      // The series is a *_us epoch value per label set (0 = queue empty);
      // the reading is the age of the oldest entry across the fleet.
      const double now_us = now.to_micros();
      double worst = 0.0;
      std::string worst_name = p.series;
      for (const auto& [canon, v] : registry_->values()) {
        if (base_of(canon) != p.series) continue;
        const double epoch_us = double(*v);
        const double age = epoch_us > 0.0 ? now_us - epoch_us : 0.0;
        if (age > worst) {
          worst = age;
          worst_name = canon;
        }
      }
      r.value = worst;
      r.breached = worst > p.threshold;
      if (r.breached) {
        r.target = worst_name;
        r.evidence = "oldest_age_us=" + fmt_double(worst, 0) +
                     " (threshold " + fmt_double(p.threshold, 0) + "us)";
      }
      break;
    }
    case IncidentKind::kFailoverStall: {
      const double open =
          double(registry_->sum(p.series)) - double(registry_->sum(p.series2));
      r.value = open;
      r.breached = open >= p.threshold;
      if (r.breached) {
        r.target = p.series;
        r.evidence = p.series + "-" + p.series2 + "=" + fmt_double(open, 0) +
                     " (threshold " + fmt_double(p.threshold, 0) + ")";
      }
      break;
    }
  }
  return r;
}

void Watchdog::tick(SimTime now) {
  if (!enabled()) return;
  ++ticks_;
  for (Detector& d : detectors_) {
    const Reading r = evaluate(d, now);
    if (d.active < 0) {
      if (r.breached) {
        if (++d.breach_run >= d.params.breach_ticks) {
          Incident inc;
          inc.kind = d.params.kind;
          inc.at = now;
          inc.target = r.target;
          inc.evidence = r.evidence;
          incidents_.push_back(std::move(inc));
          d.active = int(incidents_.size()) - 1;
          d.breach_run = 0;
          d.clear_run = 0;
        }
      } else {
        d.breach_run = 0;
      }
    } else {
      if (!r.breached) {
        if (++d.clear_run >= d.params.clear_ticks) {
          incidents_[std::size_t(d.active)].cleared = true;
          incidents_[std::size_t(d.active)].clear_at = now;
          d.active = -1;
          d.clear_run = 0;
        }
      } else {
        d.clear_run = 0;
      }
    }
  }
}

}  // namespace redbud::obs
