"""Exact-arithmetic toolkit for depth-two algebra extensions.

Decides the depth-two condition for finite-dimensional algebra
extensions over Q or F_p, constructs the right bialgebroid carried by
the B-central tensor square over the centralizer with machine-verified
axioms, and audits the equivalence between (depth two + balanced) and
the Galois condition for the canonical bialgebroid.
"""

from .fields import GF, QQ, FieldError, PrimeField, Rationals
from .linalg import Matrix, Subspace, combine, quotient_structure, solve_in_span
from .algebras import (AlgebraError, AlgebraMorphism, Extension, FiniteAlgebra,
                       SelfCheckError, SubalgebraData, centralizer, field_as_algebra,
                       group_algebra, group_pair, ground_field_extension, ideal_closure,
                       make_algebra, matrix_algebra, normality_audit,
                       subgroup_extension, trivial_extension)
from .bimodules import (Bimodule, QuasibaseSet, b_centralized, balanced_tensor,
                        bimodule_generators, compose_extensions, coproduct_summand_test,
                        group_quasibase, h_separability_test, hom_space, left_d2_quasibase,
                        restrict, right_d2_quasibase, split_projectivity_audit,
                        tensor_power, tensor_square, verify_quasibase)
from .bialgebroid import (RightBialgebroid, TripleTensorWitness, axiom_audit,
                          build_T, commutative_flip_check, left_r_projectivity, t_core)
from .actions import LeftModule, MeasuredEndos, action_invariants, t_action
from .galois import (GaloisData, balanced_audit, canonical_coaction, coinvariants,
                     comodule_algebra_audit, d2_iff_corollary_audit, galois_data,
                     galois_map, main_theorem_audit)
from .catalog import CATALOG, build_example, catalog_names, m2_over_ground_field

__all__ = [name for name in dir() if not name.startswith("_")]
