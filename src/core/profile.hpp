// Analytic hydrostatic atmosphere profiles used for reference states and
// idealized initial conditions (mountain-wave and bubble tests).
//
// Each profile supplies theta(z) and the hydrostatically consistent Exner
// pressure pi(z), from which p, rho and T follow. Three classical cases:
//
//  * isentropic        : theta = theta0
//  * constant-N        : theta = theta0 * exp(N^2 z / g)  (the mountain
//                        wave test's uniformly stratified atmosphere)
//  * isothermal        : T = T0 (N^2 = g^2 / (cp T0))
#pragma once

#include <cmath>

#include "src/common/constants.hpp"
#include "src/common/error.hpp"

namespace asuca {

class AtmosphereProfile {
  public:
    static AtmosphereProfile isentropic(double theta0,
                                        double surface_p = constants::p00) {
        return AtmosphereProfile(theta0, 0.0, surface_p);
    }

    static AtmosphereProfile constant_n(double theta0, double brunt_vaisala,
                                        double surface_p = constants::p00) {
        return AtmosphereProfile(theta0, brunt_vaisala, surface_p);
    }

    static AtmosphereProfile isothermal(double t0,
                                        double surface_p = constants::p00) {
        const double n = constants::g / std::sqrt(constants::cpd * t0);
        return AtmosphereProfile(t0, n, surface_p);
    }

    double theta(double z) const {
        if (n_ == 0.0) return theta0_;
        return theta0_ * std::exp(n_ * n_ * z / constants::g);
    }

    /// Exner pressure, from analytic integration of d pi/dz = -g/(cp theta).
    double exner(double z) const {
        using namespace constants;
        if (n_ == 0.0) {
            return pi0_ - g * z / (cpd * theta0_);
        }
        const double gn2 = g * g / (cpd * theta0_ * n_ * n_);
        return pi0_ - gn2 * (1.0 - std::exp(-n_ * n_ * z / g));
    }

    double pressure(double z) const {
        using namespace constants;
        const double pi = exner(z);
        ASUCA_REQUIRE(pi > 0.0, "profile pressure vanished at z=" << z
                                    << "; lower ztop or raise theta0");
        return p00 * std::pow(pi, cpd / Rd);
    }

    double temperature(double z) const { return theta(z) * exner(z); }

    double rho(double z) const {
        using namespace constants;
        // p = rho * Rd * T
        return pressure(z) / (Rd * temperature(z));
    }

    double rho_theta(double z) const { return rho(z) * theta(z); }

    double brunt_vaisala() const { return n_; }

  private:
    AtmosphereProfile(double theta0, double n, double surface_p)
        : theta0_(theta0), n_(n),
          pi0_(std::pow(surface_p / constants::p00, constants::kappa)) {
        ASUCA_REQUIRE(theta0 > 100.0 && theta0 < 1000.0,
                      "unphysical surface theta " << theta0);
        ASUCA_REQUIRE(n >= 0.0, "negative Brunt-Vaisala frequency");
    }

    double theta0_;
    double n_;
    double pi0_;
};

}  // namespace asuca
