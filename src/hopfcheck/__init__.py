"""Verification library for Cayley-Dickson sphere multiplications, join
constructions and Hopf fibrations, with exact rational and sampled
floating-point law suites."""

__version__ = "0.1.0"

from .cdalg import conj_coeffs, law_suite, mul_coeffs, norm_coeffs, zero_divisor_search
from .checks import LawReport, ReportDocument
from .errors import InvariantViolation, PreconditionError, UsageError
from .hopf import HopfInstance, fiber_check, fibration_report, hopf_instance, hopf_map
from .joinmul import (DiamondProblem, SquareFiller, diamond_suite, fill_refl_diamond,
                      join_mul_alg, join_mul_syn, oracle_equivalence_suite,
                      reduced_diamond_filler, unit_law_check)
from .laws import (Carrier, ImaginaroidInstance, assoc_check, corner_transport_check,
                   corner_transport_suite, hspace_check, imaginaroid_check,
                   imaginaroid_instance, spheroid_check, spheroid_instance)
from .spheremodel import JoinPoint, SpherePoint, join_embed
