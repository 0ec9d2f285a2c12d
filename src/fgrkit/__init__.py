"""fgrkit: functional-group molecular representations.

SMILES/SMARTS engine, curated + mined functional-group vocabularies,
multi-hot encodings, a from-scratch autoencoder training pipeline, feature
attribution, and representation-quality diagnostics.
"""

from .chem import (
    Atom,
    Bond,
    Molecule,
    canonical_smiles,
    murcko_scaffold,
    parse_smiles,
    perceive_rings,
    scaffold_key,
    tokenize_smiles,
)
from .smarts import QueryPattern, find_embeddings, match_exists, parse_smarts
from .vocab import (
    FGVocabulary,
    MFGVocabulary,
    load_fg_vocab,
    load_mfg_vocab,
    mine_mfg,
    save_vocab,
    scan_pair_frequencies,
)
from .encode import (
    compute_descriptors,
    encode_fg,
    encode_mfg,
    encode_records,
    feature_columns,
    l2_normalize,
)
from .nn import (
    Batch,
    ModelHyper,
    ModelState,
    compute_gradients,
    focal_reconstruction_loss,
    forward_decoder,
    forward_encoder,
    init_model,
    load_checkpoint,
    predict_head,
    sam_step,
    save_checkpoint,
    sgd_step,
    supervised_loss,
    total_loss,
    ubc_loss,
)
from .metrics import mae, r_squared, rmse, roc_auc
from .pipeline import (
    Dataset,
    SplitAssignment,
    crossvalidate,
    evaluate_state,
    load_dataset,
    random_split,
    scaffold_split,
    train,
)
from .attribution import (
    AttributionReport,
    LogitModel,
    aggregate_attributions,
    feature_ablation,
    feature_permutation,
    gradient_shap,
    integrated_gradients,
)
from .repquality import (
    ClusteredEmbedding,
    UniformityProfile,
    davies_bouldin,
    project_2d,
    uniformity_profile,
)

__version__ = "0.1.0"
