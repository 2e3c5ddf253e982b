// Transceiver and cable modeling (§3.1 of the paper).
//
// The paper's repair ladder is defined over this hardware: DAC/AEC/AOC cables
// have transceivers integrated at manufacture (nothing to clean on-site),
// while longer links use separate optical transceivers and LC/MPO fiber whose
// end-faces contaminate and need inspection/cleaning. Form-factor and pull-tab
// diversity (§4 "tens of different designs") is what makes robotic grasping
// hard, so it is modeled explicitly.
#pragma once

#include <cstdint>
#include <string>

namespace smn::net {

/// Physical link medium, chosen from cable length at build time (§3.1).
enum class CableMedium : std::uint8_t {
  kDac,        // direct-attach copper, short in-rack links
  kAec,        // active electrical cable, integrated transceivers
  kAoc,        // active optical cable, integrated transceivers
  kLcOptical,  // separate transceiver + single-channel LC fiber
  kMpoOptical, // separate transceiver + multi-channel MPO fiber
};
[[nodiscard]] const char* to_string(CableMedium m);

/// True when transceivers are permanently attached to the cable, so the
/// cleaning stage of the repair ladder does not apply — only reseat/replace.
[[nodiscard]] constexpr bool is_integrated(CableMedium m) {
  return m == CableMedium::kDac || m == CableMedium::kAec || m == CableMedium::kAoc;
}
/// True when there is a fiber end-face that can be contaminated and cleaned.
[[nodiscard]] constexpr bool is_cleanable(CableMedium m) {
  return m == CableMedium::kLcOptical || m == CableMedium::kMpoOptical;
}

/// Pluggable form factor; one axis of the hardware diversity the paper says
/// robots must cope with.
enum class FormFactor : std::uint8_t { kSfp28, kQsfp28, kQsfpDd, kOsfp };
[[nodiscard]] const char* to_string(FormFactor f);

/// The mechanical pull-tab / latch style. Grasp success and timing of the
/// manipulation robot depend on this (§3.3.3: backends "vary in color, shape,
/// material, stiffness").
enum class TabStyle : std::uint8_t { kPullTab, kBail, kRigidTab, kRecessed };
[[nodiscard]] const char* to_string(TabStyle t);

/// A transceiver SKU: what a vision system must recognize and a gripper grasp.
struct TransceiverModel {
  FormFactor form_factor = FormFactor::kQsfp28;
  TabStyle tab = TabStyle::kPullTab;
  std::uint8_t vendor = 0;  // vendor index, for diversity statistics
  /// MPO end-faces may be polished at an 8-degree angle (APC); §3.3.3 calls
  /// out supporting both as a robot-design lesson.
  bool angled_end_face = false;

  [[nodiscard]] std::string describe() const;
};

/// Mutable per-end condition of a link: one transceiver plus the mating fiber
/// end-face. Repair actions and fault processes write these fields; the link
/// state machine reads them.
struct EndCondition {
  bool transceiver_present = true;
  bool transceiver_seated = true;
  /// Electrical/optical health of the module itself; false => must replace.
  bool transceiver_healthy = true;
  /// End-face contamination in [0, 1]: 0 pristine, 1 opaque. Drives the
  /// degraded/flapping thresholds in the link state machine. Removed by
  /// cleaning, not by reseating.
  double contamination = 0.0;
  /// Contact oxidation in [0, 1]: gold-plated edge contacts corrode slowly
  /// (§3.2: "gold is not immune from oxidation and corrosion"). Raises the
  /// gray-episode hazard; *reset by reseating*, which scrapes the contacts.
  /// The fault injector accrues it lazily: the value is current as of the
  /// last gray-episode candidate on the link or usability change of the end.
  double oxidation = 0.0;
  int reseat_count = 0;
  int clean_count = 0;
  /// Advanced by reset_contacts, so the injector can tell a reset happened
  /// even when oxidation reads 0 before and after it.
  std::uint32_t contact_epoch = 0;

  [[nodiscard]] bool usable() const {
    return transceiver_present && transceiver_seated && transceiver_healthy;
  }
};

/// Fresh or scraped contacts: zero oxidation and start a new contact epoch,
/// discarding whatever the injector had accrued but not yet materialised.
/// Every contact reset (reseat, module replacement, re-cabling) goes here.
inline void reset_contacts(EndCondition& c) {
  c.oxidation = 0.0;
  ++c.contact_epoch;
}

/// Mutable condition of the cable between the two ends.
struct CableCondition {
  bool intact = true;
  /// Accumulated mechanical stress (bends, pulls); raises failure hazard.
  double wear = 0.0;
};

/// Number of fiber cores a cleaning robot must inspect per end (§3.2: an
/// 800G link uses 8 fibers in one MPO cable).
[[nodiscard]] int core_count(CableMedium m, double capacity_gbps);

}  // namespace smn::net
