"""Instance generators and files, brute-force oracles and transcript files.

Importing the package loads no engine, no model and no tree search:
`forcingbench.trees` is loaded only to make a tree (`gen_table_tree`) or
to read one from an instance file, and PyYAML only to read or write an
instance file.  The command line front end is `harness.cli`.
"""

from .generators import (  # noqa: F401
    gen_coloring,
    gen_d2_partition,
    gen_delta2,
    gen_program_pairs,
    gen_stable_coloring,
    gen_table_tree,
)
from .instances import Instance, parse_instance, load_instance  # noqa: F401
from .oracles import OracleRangeError, brute_oracle, monochromatic  # noqa: F401
from .transcripts import (  # noqa: F401
    canonical_json,
    emit_transcript,
    load_transcript,
    transcript_hash,
)
