"""wP2P: the paper's mobile-host client (AM + IA + MA components)."""

from .age_manipulation import (
    DEFAULT_GAMMA_BYTES,
    MATURE,
    YOUNG,
    AgeBasedManipulation,
)
from .client import (
    WP2PClient,
    WP2PConfig,
    am_only_config,
    rr_only_config,
    wp2p_ip_change_policy,
)
from .incentive_aware import IdentityRetention, LIHDController, seed_lihd
from .mobility_aware import (
    MobilityAwareSelector,
    exponential_progress_schedule,
    linear_progress_schedule,
    stability_schedule,
)

__all__ = [
    "AgeBasedManipulation",
    "DEFAULT_GAMMA_BYTES",
    "YOUNG",
    "MATURE",
    "WP2PClient",
    "WP2PConfig",
    "am_only_config",
    "rr_only_config",
    "wp2p_ip_change_policy",
    "IdentityRetention",
    "LIHDController",
    "seed_lihd",
    "MobilityAwareSelector",
    "linear_progress_schedule",
    "exponential_progress_schedule",
    "stability_schedule",
]
