from .coh import CohConfig, run_coh  # noqa: F401
from .d2 import D2Config, Delta2Partition, run_d2, select_color  # noqa: F401
from .em import EmConfig, run_em  # noqa: F401
from .pipeline import rt2_pipeline  # noqa: F401
from .verify import verify_transcript  # noqa: F401
