"""Numerical tolerances shared by every module: EPS_EQ for identities exact to
machine precision, EPS_AUDIT for identities through quadrature or a gridded
potential, EPS_TIE for ties between work-function values and rounding below 0."""

EPS_EQ = 1e-9
EPS_AUDIT = 1e-6
EPS_TIE = 1e-12
