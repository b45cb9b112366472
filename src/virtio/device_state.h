// Virtio device status lifecycle + feature negotiation (virtio 1.x §2.1,
// referenced by the paper's PIM specification in Appendix A.1).
//
// The guest driver walks ACKNOWLEDGE -> DRIVER -> FEATURES_OK -> DRIVER_OK
// during initialization; the device must reject queue notifications until
// DRIVER_OK is set, and either side can force a reset. The PIM device
// offers no feature bits ("No feature bits are needed", Appendix A.1), so
// negotiation must end with an empty feature set.
#pragma once

#include <cstdint>

#include "common/error.h"

namespace vpim::virtio {

inline constexpr std::uint8_t kStatusAcknowledge = 1;
inline constexpr std::uint8_t kStatusDriver = 2;
inline constexpr std::uint8_t kStatusDriverOk = 4;
inline constexpr std::uint8_t kStatusFeaturesOk = 8;
inline constexpr std::uint8_t kStatusNeedsReset = 64;
inline constexpr std::uint8_t kStatusFailed = 128;

class DeviceState {
 public:
  explicit DeviceState(std::uint64_t device_features = 0)
      : device_features_(device_features) {}

  std::uint8_t status() const { return status_; }
  bool driver_ok() const { return (status_ & kStatusDriverOk) != 0; }

  // Driver writes the status register. Writing 0 resets the device; other
  // writes may only *add* bits, in the prescribed order.
  void write_status(std::uint8_t value) {
    if (value == 0) {
      reset();
      return;
    }
    VPIM_CHECK((status_ & kStatusFailed) == 0,
               "device is FAILED; reset before reuse");
    VPIM_CHECK((value & status_) == status_,
               "status bits can only be added, never removed");
    const std::uint8_t added = value & ~status_;
    if (added & kStatusDriver) {
      VPIM_CHECK(value & kStatusAcknowledge, "DRIVER before ACKNOWLEDGE");
    }
    if (added & kStatusFeaturesOk) {
      VPIM_CHECK(value & kStatusDriver, "FEATURES_OK before DRIVER");
      VPIM_CHECK(features_written_, "FEATURES_OK before feature selection");
      // The device accepts the negotiated features only if they are a
      // subset of what it offered (for PIM: the empty set).
      if ((driver_features_ & ~device_features_) != 0) {
        status_ |= kStatusFailed;
        fail("driver selected features the device does not offer");
      }
    }
    if (added & kStatusDriverOk) {
      VPIM_CHECK(value & kStatusFeaturesOk, "DRIVER_OK before FEATURES_OK");
    }
    status_ = value;
  }

  std::uint64_t device_features() const { return device_features_; }
  void write_driver_features(std::uint64_t features) {
    VPIM_CHECK((status_ & kStatusFeaturesOk) == 0,
               "features locked after FEATURES_OK");
    driver_features_ = features;
    features_written_ = true;
  }
  std::uint64_t negotiated_features() const {
    return driver_features_ & device_features_;
  }

  void reset() {
    status_ = 0;
    driver_features_ = 0;
    features_written_ = false;
  }

 private:
  std::uint64_t device_features_;
  std::uint64_t driver_features_ = 0;
  bool features_written_ = false;
  std::uint8_t status_ = 0;
};

}  // namespace vpim::virtio
