"""Chaotic-map stream cipher toolkit.

A byte stream cipher whose keystream comes from iterating a 2-D chaotic
map (a torus cat-map variant or the Duffing map) keyed by the map's
(a, b) parameter pair, with the mixed plaintext fed back into the state.
The analysis half measures key space, plaintext/key sensitivity, key
identifiability over parameter grids, and known-plaintext attack
robustness, and renders the per-key report tables.
"""

from .maps import (
    DIVERGENCE_BOUND,
    DivergenceError,
    DomainError,
    MapKind,
    MapParams,
    State,
    arnold_step,
    divergence_measure,
    duffing_step,
    iterate,
    read_trajectory_csv,
    signed_mod,
    step_function,
    trajectory,
    write_trajectory_csv,
)
from .cipher import (
    DEFAULT_INITIAL_STATE,
    SYMBOL_MODULUS,
    CipherConfig,
    Key,
    SymbolTrace,
    config_from_dict,
    decrypt,
    decrypt_file,
    default_config,
    encrypt,
    encrypt_bytes,
    encrypt_file,
    key_from_json,
    key_to_json,
    load_config,
    load_key,
    quantize,
    save_key,
)
from .analysis import (
    BRUTE_FORCE_FLOOR,
    FULL_KEY_DOMAIN,
    KEY_SPACE_RESOLUTION,
    REFERENCE_KEY_SPACE,
    REFERENCE_PT_SENSITIVITY_BAND,
    REPORT_HEADER,
    AnalysisRow,
    AttackResult,
    CipherSummary,
    IdentifiabilityResult,
    KeyDomain,
    analysis_report,
    builtin_spec_path,
    compare_ciphers,
    effective_workers,
    hamming_bits,
    identifiability_scan,
    key_sensitivity,
    key_space_size,
    known_plaintext_attack,
    load_report_spec,
    plaintext_sensitivity,
    read_report_csv,
    write_comparison_csv,
    write_report_csv,
)

__version__ = "0.1.0"
