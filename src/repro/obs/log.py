"""The campaign progress logger.

Campaign progress lines go to the dedicated ``repro.campaign.progress``
stdlib logger, which stays at INFO with a bare message format and does not
propagate — so progress lines appear by default, and a caller can still
silence or redirect them through :mod:`logging`.
"""

from __future__ import annotations

import logging
import sys

#: Attribute stamped on the handler we install, so repeated calls (tests,
#: repeated CLI invocations in one process) never duplicate it.
_HANDLER_MARKER = "_repro_obs_handler"

#: Logger carrying campaign progress lines; always INFO, never propagates.
PROGRESS_LOGGER_NAME = "repro.campaign.progress"


def progress_logger() -> logging.Logger:
    """The always-on, bare-format logger for campaign progress lines.

    Self-configuring: the first call installs one stderr handler, and
    later calls reuse it.
    """
    progress = logging.getLogger(PROGRESS_LOGGER_NAME)
    progress.setLevel(logging.INFO)
    progress.propagate = False
    if not any(getattr(handler, _HANDLER_MARKER, False)
               for handler in progress.handlers):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(message)s"))
        setattr(handler, _HANDLER_MARKER, True)
        progress.addHandler(handler)
    return progress
