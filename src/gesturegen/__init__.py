"""Co-speech gesture synthesis toolkit.

Learns a text-to-gesture sequence model over a low-dimensional pose space,
plans timed generation for arbitrary-length speech, and retargets generated
2D pose tracks onto a 12-DoF humanoid upper body.
"""

from .baselines import bleu_score, eval_tracks, manual_baseline, nn_baseline, random_baseline
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import Config, load_config
from .corpus import CurationThresholds, DatasetRecord, WordSpan, curate_shots, synth_corpus
from .kinematics import compute_joint_angles, forward_kinematics
from .lifting import (
    LiftNetParams,
    LiftTrainConfig,
    augment_3d,
    lift_forward,
    retarget_track,
    synth_pose3d_corpus,
    train_lift,
)
from .model import ModelConfig, Seq2SeqModel, backward, forward, init_model
from .pose import (
    GESTURE_DIM,
    JOINT_NAMES,
    PcaModel,
    component_sweep,
    decode_pose,
    encode_pose,
    fit_pca,
    normalize_pose,
)
from .synthesis import (
    ChunkPlan,
    TimedPoseTrack,
    align_track,
    estimate_speech_duration,
    export_attention,
    generate_gesture,
    plan_chunks,
)
from .text import EmbeddingTable, embed_tokens, load_embedding_table, tokenize
from .training import (
    AdamState,
    Hyperparams,
    LossBreakdown,
    TrainingPair,
    adam_step,
    clip_gradients,
    compute_loss_graph,
    make_training_pairs,
    train_model,
)

__version__ = "0.1.0"
