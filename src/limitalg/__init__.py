"""Finite-dimensional digraph algebras, regular maps, and their limits."""

from .core import (Digraph, DigraphAlgebra, PermutationUnitary, RankMatrix,
                   StandardPartialIsometry, StandardProjection,
                   build_digraph_algebra, cycle_flagged_classes,
                   diagonal_algebra, direct_sum_algebra, full_matrix_algebra,
                   identity_unitary, is_normalizing, projection, rank_profile,
                   tensor_model, tr_algebra)
from .homs import (DEFAULT_TOL, IndexMap, MultiplicityOneMap, NumericStarMap,
                   StandardRegularMap, Unitary, ampliation, apply_to_unitary,
                   assemble_regular, compose, conjugate_numeric,
                   conjugate_standard, decompose_maximal, direct_sum,
                   identity_map, map_distance, numeric_compose,
                   operator_norm, refinement_map, refinement_summand,
                   same_action, strictify, to_numeric,
                   validate_multiplicity_one, validate_numeric)
from .conjugacy import (ClassKey, conjugacy_class, permutation_intertwiner,
                        restandardize_triangle, standard_witness)
from .detect import (RegularityCertificate, SummandCensus, TestProductResult,
                     TestWord, close_conjugacy, is_regular, summand_census,
                     test_product, test_word, threshold_constant)
from .intertwine import (CorrectedDiagram, CrossoverDiagram, DiagramReport,
                         DirectSystem, approx_intertwine, exact_intertwine,
                         verify_diagram)
from .spectrum import (BratteliPath, CylinderRelation, DepthComparison,
                       RelationStatistics, compare_relations,
                       cylinder_relation, path_space,
                       relation_isomorphic_at_depth)
from .dimmod import (DISTINCT, EQUAL, NOT_YET_DISTINGUISHABLE, GroupElement,
                     LimitPresentation, ModuleMapMatrix, MonotoneMap,
                     ScaleConstraint, SemiringElement, StageModule, TrShape,
                     class_of_map, enumerate_monotone,
                     equal_up_to_stage, in_scale, induced_map,
                     limit_presentation, matrix_product, semiring_add,
                     semiring_mul, semiring_one, semiring_zero, tr_shape)
from . import errors

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
