"""Split machine learning over reciprocal MIMO channels, in simulation.

The channel computes: an inter-node dense (or channel-mixing convolutional)
layer is realized by precoding, physical propagation and combining, summed
over a handful of transmissions.  Training needs no channel estimation; the
backward pass rides the reverse direction of the same channel.
"""

from .linalg import (DecompositionError, crandn, make_rng, matrix_rank, pinv,
                     spectral_norm, svd)
from .channel import (NOISELESS, ChannelState, NoiseModel, PathSet,
                      channel_from_dict, channel_snr, channel_to_dict,
                      evolve_channel, sample_channel, save_channel,
                      transmit_backward, transmit_forward, wrap_angle)
from .nn import (Adam, AvgPool2d, ComplexBatchNorm, ComplexNet, Conv2d, CRelu,
                 Dense, Flatten, Sgd, modulus_softmax_loss, numerical_gradient)
from .oac import (ALL_DESIGNS, ChannelRankError, FeasibilityError,
                  FeasibilityWarning, OacBackwardResult, OacConvLayer,
                  OacDesign, OacLayer, SnrReport, Transcript, decompose_weight,
                  equivalent_weight, feasible, ideal_matrices,
                  layer_from_weight, power_normalize, snr_report)
from .runtime import (BatchMetrics, CovarianceTracker, RegretConfig,
                      RegretResult, SplitLink, SplitSystem,
                      comm_loss_gradients, regret_experiment)
from .bench import (ConfigError, CostComparisonRow, CostRow,
                    DataConfig, Dataset, ExperimentConfig, LayerSpec,
                    TrainConfig, build_system, config_from_dict,
                    config_to_dict, cost_comparison, cost_report,
                    generate_dataset, preset, run_experiment)
from .verify import verify_all

__version__ = "0.1.0"
