"""End-to-end key generators: one device model per construction."""

from repro.keygen.base import (
    CodeProvider,
    KeyGenerator,
    OperatingPoint,
    ReconstructionFailure,
    bch_provider,
    blockwise_provider,
    fixed_code,
    key_check_digest,
)
from repro.keygen.batch import (
    BatchEvaluator,
    ConstantEvaluator,
    EvalPlan,
    ResponseBitEvaluator,
    SketchCompletion,
)
from repro.keygen.sequential import (
    SequentialKeyHelper,
    SequentialPairingKeyGen,
)
from repro.keygen.temp_aware import TempAwareKeyGen, TempAwareKeyHelper
from repro.keygen.group_based import (
    GroupBasedKeyGen,
    GroupBasedKeyHelper,
    kendall_stream,
)
from repro.keygen.distiller_pairing import (
    DistillerPairingHelper,
    DistillerPairingKeyGen,
    PAIRING_MODES,
)
from repro.keygen.fuzzy_keygen import FuzzyExtractorKeyGen, FuzzyKeyHelper
from repro.keygen.validation import (
    HardenedGroupBasedKeyGen,
    HardenedSequentialKeyGen,
    HardenedTempAwareKeyGen,
    HelperDataRejected,
    validate_cooperation_records,
    validate_distiller_amplitude,
    validate_group_membership,
    validate_group_thresholds,
    validate_pair_thresholds,
)

__all__ = [
    "CodeProvider",
    "KeyGenerator",
    "OperatingPoint",
    "ReconstructionFailure",
    "bch_provider",
    "blockwise_provider",
    "fixed_code",
    "key_check_digest",
    "BatchEvaluator",
    "ConstantEvaluator",
    "EvalPlan",
    "ResponseBitEvaluator",
    "SketchCompletion",
    "SequentialKeyHelper",
    "SequentialPairingKeyGen",
    "TempAwareKeyGen",
    "TempAwareKeyHelper",
    "GroupBasedKeyGen",
    "GroupBasedKeyHelper",
    "kendall_stream",
    "DistillerPairingHelper",
    "DistillerPairingKeyGen",
    "PAIRING_MODES",
    "FuzzyExtractorKeyGen",
    "FuzzyKeyHelper",
    "HardenedGroupBasedKeyGen",
    "HardenedSequentialKeyGen",
    "HardenedTempAwareKeyGen",
    "HelperDataRejected",
    "validate_cooperation_records",
    "validate_distiller_amplitude",
    "validate_group_membership",
    "validate_group_thresholds",
    "validate_pair_thresholds",
]
