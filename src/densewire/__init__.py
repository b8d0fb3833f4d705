"""densewire: design analyses for high-density vertical qubit wiring.

Submodules:
  config    - the design config: one schema of field kinds, then builders
  units     - unit-suffixed quantities and the field kinds of every input
  errors    - the exception types, ConfigInvalid naming the field
  materials - material catalog with cryogenic conductivity tables
  scaling   - lateral vs vertical wiring scalability laws
  tlines    - coax / CPW characteristic-impedance models, pin stack
  rfnet     - ABCD-cascade signal-path analysis and S-parameters
  layout    - interposer pad/pin/hole/channel layout, DRC, exports
  thermal   - controller power budgets and conductive heat loads
  golden    - the golden reference-value table of `paper-check`
  cli       - the `densewire` command-line tool

Every value type is a class decorated with `units.frozen`: positional or
keyword construction with defaults, `__post_init__` checks, `==` and
`hash` over the tuple of fields, the `repr` of a frozen dataclass, no
assignment or deletion after construction, and the field names in order as
`__match_args__`.  `units.replace` copies a value with some fields changed.
"""

__version__ = "0.1.0"
