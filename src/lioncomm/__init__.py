"""Communication-efficient distributed Lion: quantization, majority-vote
collectives, the optimizer itself, and an alpha-beta communication cost
model, all over numpy and a pluggable in-process/socket transport."""

from .collectives import (Topology, VoteResult, allreduce_mean_f32,
                          compressed_allreduce_1bit, direct_allreduce,
                          majority_sign, ps_gather_broadcast, run_ranks)
from .costmodel import ALGOS, CostParams, cost, sweep
from .errors import (CapacityError, CollectiveError, ConfigError,
                     LionCommError, PackFormatError, PackRangeError)
from .optimizer import (LionHyper, SyncPolicy, WorkerState,
                        distributed_lion_step, lion_step,
                        maybe_sync_momentum, momentum_divergence)
from .quant import (QuantSpec, SignPolicy, apply_sign, INF, lp_mean_norm,
                    pack, quantize, sround, unpack)
from .transport import InprocTransport, SocketTransport
from .workloads import (MlpModel, NoiseSpec, init_mlp, noisy_client_grads,
                        sample_alpha_stable, synth_update_vectors,
                        teacher_student_batch)
