#include "obs/obs.hpp"

namespace fourq::obs {

Telemetry& global() {
  static Telemetry t;
  return t;
}

}  // namespace fourq::obs
