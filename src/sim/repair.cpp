#include "sim/repair.hpp"

namespace streamlab {

RouteRepair::RouteRepair(Network& network, RouteRepairConfig config)
    : network_(network), config_(config) {
  if (Network::DetourControl* control = network_.detour_control(); control != nullptr)
    protect(control->span_first, control->span_last);
}

void RouteRepair::protect(int span_first, int span_last) {
  Span span;
  span.first = span_first;
  span.last = span_last;
  span.primaries = network_.span_primaries(span_first, span_last);
  const std::size_t index = spans_.size();
  spans_.push_back(std::move(span));
  for (int i = span_first; i <= span_last; ++i) {
    network_.router(i).set_health_listener(
        [this, index](bool online) { on_health(index, online); });
  }
}

bool RouteRepair::rerouted() const {
  for (const Span& span : spans_) {
    if (span.withdrawn) return true;
  }
  return false;
}

void RouteRepair::on_health(std::size_t span_index, bool online) {
  Span& span = spans_[span_index];
  if (!online) {
    ++span.down_count;
    if (span.down_count == 1) {
      // Hello timeout: commit the withdraw only if something in the span is
      // still dark when the detection delay elapses.
      network_.loop().post_in(
          config_.detection_delay,
          [this, span_index] {
            Span& s = spans_[span_index];
            if (s.down_count > 0 && !s.withdrawn) withdraw(s);
          },
          obs::EventCategory::kFault);
    }
    return;
  }
  if (span.down_count > 0) --span.down_count;
  if (span.down_count == 0 && span.withdrawn) {
    // Hold-down: restore only if the whole span is still healthy when the
    // timer fires — a router that flaps back down cancels the restore by
    // failing this check (and its own detection timer re-arms the withdraw).
    network_.loop().post_in(
        config_.hold_down,
        [this, span_index] {
          Span& s = spans_[span_index];
          if (s.down_count == 0 && s.withdrawn) restore(s);
        },
        obs::EventCategory::kFault);
  }
}

void RouteRepair::withdraw(Span& span) {
  for (auto& [router, id] : span.primaries) router->withdraw_route(id);
  span.withdrawn = true;
  ++stats_.reroutes;
  obs_state_.reroutes.add();
  if (obs_ != nullptr && obs_->tracing()) {
    obs::Tracer& tracer = obs_->tracer();
    span.trace_span = tracer.begin_span(
        tracer.intern("reroute:span" + std::to_string(span.first) + "-" +
                      std::to_string(span.last)),
        tracer.intern("repair"), network_.loop().now());
  }
  // A bad withdraw is exactly how forwarding loops are born; check now, not
  // at trial end.
  network_.audit_routing();
}

void RouteRepair::restore(Span& span) {
  for (auto& [router, id] : span.primaries) router->restore_route(id);
  span.withdrawn = false;
  ++stats_.restores;
  obs_state_.restores.add();
  if (span.trace_span != 0) {
    if (obs_ != nullptr) obs_->tracer().end_span(span.trace_span, network_.loop().now());
    span.trace_span = 0;
  }
  network_.audit_routing();
}

void RouteRepair::finish() {
  for (Span& span : spans_) {
    if (span.trace_span != 0) {
      if (obs_ != nullptr) obs_->tracer().end_span(span.trace_span, network_.loop().now());
      span.trace_span = 0;
    }
  }
}

void RouteRepair::set_observer(obs::Obs& obs) {
  obs_ = &obs;
  obs_state_.reroutes = obs.registry().counter("repair.reroutes");
  obs_state_.restores = obs.registry().counter("repair.restores");
}

}  // namespace streamlab
