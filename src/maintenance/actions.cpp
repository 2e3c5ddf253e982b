#include "maintenance/actions.h"

#include <algorithm>

namespace smn::maintenance {

const char* to_string(RepairActionKind k) {
  switch (k) {
    case RepairActionKind::kReseat: return "reseat";
    case RepairActionKind::kInspect: return "inspect";
    case RepairActionKind::kClean: return "clean";
    case RepairActionKind::kReplaceTransceiver: return "replace-transceiver";
    case RepairActionKind::kReplaceCable: return "replace-cable";
    case RepairActionKind::kReplaceLineCard: return "replace-linecard";
    case RepairActionKind::kReplaceDevice: return "replace-device";
  }
  return "?";
}

namespace {

net::EndCondition& end_of(net::Link& l, int end) {
  return end == 0 ? l.end_a.condition : l.end_b.condition;
}

/// Reseating reboots the module, which terminates an in-progress gray
/// episode on the link (§3.2 effect (ii): "a full reboot of the transceiver").
void end_gray_episode(net::Link& l, sim::TimePoint now) {
  if (l.gray_until > now) l.gray_until = now;
}

}  // namespace

ActionResult apply_action(net::Network& net, fault::ContaminationProcess* contamination,
                          sim::RngStream& rng, net::LinkId id, int end,
                          RepairActionKind kind, const WorkQuality& quality) {
  ActionResult result;
  net::Link& l = net.link_mut(id);
  const sim::TimePoint now = net.now();

  const bool botched = rng.bernoulli(quality.botch_probability);

  switch (kind) {
    case RepairActionKind::kReseat: {
      net::EndCondition& c = end_of(l, end);
      if (!c.transceiver_present) return result;  // nothing to reseat
      result.performed = true;
      c.reseat_count += 1;
      if (botched) {
        // Left it half-seated; the link stays dark until someone notices.
        c.transceiver_seated = false;
        result.botched = true;
        break;
      }
      c.transceiver_seated = true;
      net::reset_contacts(c);  // contact scrape (§3.2 effect (i))
      end_gray_episode(l, now);
      // The unplug/replug exposes the end-face to hall air.
      if (contamination != nullptr) contamination->expose(id, end, quality.exposure_risk);
      break;
    }

    case RepairActionKind::kInspect: {
      result.performed = true;
      const double worst =
          std::max(l.end_a.condition.contamination, l.end_b.condition.contamination);
      // Imaging is good but not perfect; small multiplicative sensor noise.
      result.measured_contamination =
          std::clamp(worst * rng.normal_min(1.0, 0.05, 0.0), 0.0, 1.0);
      break;
    }

    case RepairActionKind::kClean: {
      if (!net::is_cleanable(l.medium)) return result;  // integrated cable
      net::EndCondition& c = end_of(l, end);
      result.performed = true;
      c.clean_count += 1;
      if (botched) {
        // Smeared it: contamination slightly worse.
        c.contamination = std::min(1.0, c.contamination + 0.05);
        result.botched = true;
        break;
      }
      // Wet+dry passes until verification passes, diminishing returns per
      // pass; quality.clean_verify_pass gates how often one pass suffices.
      double effectiveness = quality.clean_effectiveness;
      if (!rng.bernoulli(quality.clean_verify_pass)) effectiveness *= 0.7;
      c.contamination *= (1.0 - effectiveness);
      end_gray_episode(l, now);
      break;
    }

    case RepairActionKind::kReplaceTransceiver: {
      net::EndCondition& c = end_of(l, end);
      result.performed = true;
      if (botched) {
        c.transceiver_seated = false;
        result.botched = true;
        break;
      }
      // Fresh module: cleaned and verified at assembly (§3.2).
      c.transceiver_present = true;
      c.transceiver_seated = true;
      c.transceiver_healthy = true;
      net::reset_contacts(c);
      c.contamination = 0.0;
      c.reseat_count = 0;
      c.clean_count = 0;
      end_gray_episode(l, now);
      if (contamination != nullptr) contamination->expose(id, end, quality.exposure_risk);
      break;
    }

    case RepairActionKind::kReplaceCable: {
      result.performed = true;
      if (botched) {
        result.botched = true;
        break;
      }
      l.cable.intact = true;
      l.cable.wear = 0.0;
      // New cable arrives cleaned; both ends are re-mated.
      l.end_a.condition.contamination = 0.0;
      l.end_b.condition.contamination = 0.0;
      l.end_a.condition.transceiver_seated = true;
      l.end_b.condition.transceiver_seated = true;
      end_gray_episode(l, now);
      break;
    }

    case RepairActionKind::kReplaceLineCard: {
      const net::LinkEnd& link_end = end == 0 ? l.end_a : l.end_b;
      const net::Device& dev = net.device(link_end.device);
      if (!dev.has_linecards()) return result;  // monolithic box: wrong rung
      result.performed = true;
      if (botched) {
        result.botched = true;
        break;
      }
      net.set_linecard_health(link_end.device, dev.card_of(link_end.port), true);
      break;
    }

    case RepairActionKind::kReplaceDevice: {
      result.performed = true;
      if (botched) {
        result.botched = true;
        break;
      }
      // Device-scoped: replace whichever endpoint box is dead; its links
      // re-derive on refresh.
      for (const net::DeviceId d : {l.end_a.device, l.end_b.device}) {
        if (!net.device(d).healthy) net.set_device_health(d, true);
      }
      break;
    }
  }

  net.refresh_link(id);
  return result;
}

}  // namespace smn::maintenance
