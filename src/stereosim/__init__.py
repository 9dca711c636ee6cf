"""Stereo block matching, image quality metrics, and an energy-aware
camera sensor network simulator with a file-based CLI."""

from .imaging import (
    GrayImage,
    PgmParseError,
    parse_pgm,
    pgm_num_bytes,
    serialize_pgm,
)
from .metrics import MetricResult, mse, psnr, ssim
from .sensornet import (
    DeadNodeError,
    EnergyModel,
    RoutingError,
    Scenario,
    ScenarioError,
    SensorNode,
    SimReport,
    StereoPair,
    charge_processing,
    charge_transmission,
    detect_event,
    load_scenario,
    network_lifetime,
    report_to_dict,
    route_to_sink,
    run_simulation,
    save_report,
    scenario_from_dict,
)
from .stereo import (
    CostStats,
    DepthMap,
    DisparityFormatError,
    DisparityMap,
    MatchParams,
    compute_disparity,
    disparity_to_depth,
    parse_disparity,
    rle_decode_disparity,
    rle_encode_disparity,
    rle_num_bytes,
    scale_to_gray,
    serialize_disparity,
    sidecar_num_bytes,
)
from .synthetic import shifted_pair, shifted_sequence, texture

__version__ = "0.1.0"
