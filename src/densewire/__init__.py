"""densewire: design analyses for high-density vertical qubit wiring.

Submodules:
  materials - material catalog with cryogenic conductivity tables
  scaling   - lateral vs vertical wiring scalability laws
  tlines    - coax / CPW characteristic-impedance models, pin stack
  rfnet     - ABCD-cascade signal-path analysis and S-parameters
  layout    - interposer pad/pin/hole/channel layout, DRC, exports
  thermal   - controller power budgets and conductive heat loads
  cli       - the `densewire` command-line tool
"""

__version__ = "0.1.0"

from .errors import (
    ConfigInvalid,
    DegenerateGeometry,
    DensewireError,
    NotAConductor,
    OutOfRange,
    PitchConditionViolated,
    UnknownMaterial,
    UnknownParameter,
    UnsupportedFormat,
)
from .materials import (
    Material,
    MaterialCatalog,
    default_catalog,
    interpolate_conductivity,
    is_superconducting,
    load_catalog,
)
from .scaling import (
    BondWireGeometry,
    QubitArraySpec,
    ScalingReport,
    WiringArchitecture,
    check_pitch_condition,
    lateral_crossover_length,
    lateral_scaling_report,
    logical_qubit_estimate,
    required_pitch_for_full_chip,
    vertical_scaling_report,
    wire_pitch_from_bonds,
)
from .tlines import (
    CoaxSpec,
    CpwSpec,
    PinStack,
    coax_impedance,
    coax_outer_for_impedance,
    complete_elliptic_k,
    cpw_effective_permittivity,
    cpw_impedance,
    line_propagation,
    pin_outer_diameter,
)
from .rfnet import (
    FrequencyResponse,
    IdealAttenuator,
    SeriesImpedance,
    ShuntAdmittance,
    TwoPortNetwork,
    UniformLine,
    cascade,
    mismatch_report,
    to_s_parameters,
)
from .layout import (
    Annotation,
    DrcFinding,
    DrcReport,
    InterposerLayout,
    LayoutConfig,
    bonding_force,
    export_layout,
    generate_layout,
    layout_from_json,
    process_checklist,
    run_drc,
)
from .thermal import (
    ConductionPath,
    ControllerTech,
    Stage,
    StageModel,
    ThermalArchitecture,
    conduction_load,
    controller_budget,
    default_stage_model,
    stage_report,
    wiedemann_franz_load,
)
