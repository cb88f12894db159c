// Equation of state (paper Eq. 5): p = Rd * pi * (rho * theta_m), written
// in the equivalent closed form
//
//     p = p00 * ( Rd * rho*theta_m / p00 )^(cp/cv)
//
// where pi is the Exner function pi = (p/p00)^(Rd/cp). The squared sound
// speed of the moist-air mixture used by the acoustic linearization is
// cs^2 = (cp/cv) * p / rho, and the pressure derivative against the
// prognostic rho*theta_m is dp/d(rho theta_m) = (cp/cv) * p / (rho theta_m).
#pragma once

#include <cmath>

#include "src/common/constants.hpp"
#include "src/field/simd.hpp"

namespace asuca {

/// Pressure from the prognostic rho*theta_m [Pa].
template <class T>
inline T eos_pressure(T rhotheta) {
    using std::pow;
    constexpr double c = constants::Rd / constants::p00;
    return T(constants::p00) * pow(T(c) * rhotheta, T(constants::gamma_d));
}

/// Inverse: rho*theta_m that produces pressure p.
template <class T>
inline T eos_rhotheta(T p) {
    using std::pow;
    return T(constants::p00 / constants::Rd) *
           pow(p / T(constants::p00), T(1.0 / constants::gamma_d));
}

/// d p / d (rho theta_m) at the given state; the acoustic stiffness.
/// Also evaluates a Lanes<T> chunk, one value per lane.
template <class V>
inline V eos_dp_drhotheta(V p, V rhotheta) {
    using T = lane_element_t<V>;
    return T(constants::gamma_d) * p / rhotheta;
}

/// Squared sound speed cs^2 = gamma * p / rho.
template <class T>
inline T eos_sound_speed_sq(T p, T rho) {
    return T(constants::gamma_d) * p / rho;
}

/// Exner function pi = (p/p00)^kappa.
template <class T>
inline T exner(T p) {
    using std::pow;
    return pow(p / T(constants::p00), T(constants::kappa));
}

/// Temperature from pressure and the (moist) potential temperature
/// theta_m = rho*theta_m / rho: T = theta * pi. (Exact for dry air; for the
/// moist mixture theta_m absorbs the vapor correction, Sec. II.)
template <class T>
inline T temperature(T p, T rhotheta, T rho) {
    return (rhotheta / rho) * exner(p);
}

/// theta_m from theta and the water-substance mass ratios (paper Sec. II):
/// theta_m = theta * ( rho_d/rho + eps * rho_v/rho ), eps = Rv/Rd.
template <class T>
inline T theta_m_of(T theta, T qv, T q_condensate_total) {
    const T qd = T(1) - qv - q_condensate_total;
    return theta * (qd + T(constants::eps_vd) * qv);
}

}  // namespace asuca
