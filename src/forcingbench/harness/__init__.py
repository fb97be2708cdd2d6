from .generators import (  # noqa: F401
    gen_coloring,
    gen_d2_partition,
    gen_delta2,
    gen_program_pairs,
    gen_stable_coloring,
    gen_table_tree,
)
from .instances import Instance, parse_instance, load_instance  # noqa: F401
from .oracles import brute_oracle, monochromatic  # noqa: F401
from .transcripts import (  # noqa: F401
    canonical_json,
    emit_transcript,
    load_transcript,
    transcript_hash,
)
