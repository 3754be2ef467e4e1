"""Learn a Bayes net over an incomplete categorical table, then use it to
impute missing cells and to rewrite selection queries so tuples hidden by
nulls can still be retrieved and ranked."""

from .afd import (
    Afd,
    NaiveBayesModel,
    NoRuleError,
    NotApplicableError,
    afd_from_line,
    afd_impute_tuple,
    afd_to_line,
    best_afds,
    fit_naive_bayes,
    load_afds,
    mine_afds,
    save_afds,
)
from .bayesnet import (
    BayesNet,
    ModelFormatError,
    StructureSearchConfig,
    d_separated,
    fit_parameters,
    learn_structure,
    load_model,
    markov_blanket,
    sample_rows,
    save_model,
    uniform_cpts,
)
from .harness import (
    ExperimentConfig,
    ImputationRun,
    PrCurve,
    PrPoint,
    format_timing_table,
    imputation_csv_lines,
    load_config,
    parse_config,
    pr_csv_lines,
    run_imputation_experiment,
    run_rewriting_experiment,
    split_table,
)
from .imputation import GibbsParams, ImputationReport, impute_table, impute_tuple
from .inference import (
    ImpossibleEvidenceError,
    JointDistribution,
    enumerate_joint,
    format_distribution,
    map_assignment,
    posterior_exact,
    posterior_gibbs,
)
from .rewriting import (
    REWRITING_METHODS,
    BeamConfig,
    QueryScore,
    RetrievedAnswer,
    RewritingResult,
    RewrittenQuery,
    afd_all_attributes,
    afd_highest_confidence,
    afd_rewrite_single,
    bn_all_mb,
    bn_beam,
    expected_precision,
    expected_selectivity,
    f_measure,
    run_method,
)
from .source import AutonomousSource, QueryBudgetError
from .tabular import (
    ParseError,
    Row,
    Schema,
    SelectionQuery,
    Table,
    align_table,
    discretize,
    inject_nulls,
    load_csv,
    parse_discretize_rules,
    project_distinct,
    save_csv,
    select,
)

__version__ = "0.1.0"
