"""repro -- An Adversary-Centric Behavior Modeling of DDoS Attacks.

A full reproduction of Wang, Mohaisen & Chen (IEEE ICDCS 2017): data-
driven temporal (ARIMA), spatial (NAR neural network) and
spatiotemporal (model tree) predictive models of botnet DDoS behavior,
together with every substrate the paper depends on -- a synthetic
attack-trace generator calibrated to the paper's Table I, an AS-level
Internet with Gao relationship inference and valley-free routing, and
from-scratch time-series / neural / regression-tree stacks.

Quickstart::

    from repro import DatasetConfig, TraceGenerator, AttackPredictor

    trace, env = TraceGenerator(DatasetConfig(n_days=60, seed=7)).generate()
    predictor = AttackPredictor(trace, env).fit()
    attack, prediction = predictor.predict_test_set()[0]
    print(prediction.hour, prediction.duration, prediction.magnitude)
"""

from repro.dataset import (
    AttackRecord,
    AttackTrace,
    DatasetConfig,
    SimulationEnvironment,
    TraceGenerator,
    load_trace,
    save_trace,
    train_test_split,
)
from repro.features import FeatureExtractor
from repro.core import (
    AlwaysMean,
    AlwaysSame,
    AttackPredictor,
    AttackPrediction,
    SpatialModel,
    SpatiotemporalConfig,
    SpatiotemporalModel,
    TemporalModel,
)
from repro.topology import TopologyConfig, generate_topology
from repro.serving import (
    Forecast,
    ForecastEngine,
    ForecastRequest,
    ModelRegistry,
)
from repro.telemetry import Telemetry

__version__ = "1.1.0"

__all__ = [
    "AttackRecord",
    "AttackTrace",
    "DatasetConfig",
    "SimulationEnvironment",
    "TraceGenerator",
    "load_trace",
    "save_trace",
    "train_test_split",
    "FeatureExtractor",
    "AlwaysMean",
    "AlwaysSame",
    "AttackPredictor",
    "AttackPrediction",
    "SpatialModel",
    "SpatiotemporalConfig",
    "SpatiotemporalModel",
    "TemporalModel",
    "TopologyConfig",
    "generate_topology",
    "Forecast",
    "ForecastEngine",
    "ForecastRequest",
    "ModelRegistry",
    "Telemetry",
    "__version__",
]
