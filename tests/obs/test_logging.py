"""repro.obs.log: the progress logger and its idempotent handler."""

import logging

from repro.obs import progress_logger
from repro.obs.log import _HANDLER_MARKER, PROGRESS_LOGGER_NAME


def _marked_handlers(logger):
    return [h for h in logger.handlers if getattr(h, _HANDLER_MARKER, False)]


def test_repeated_configuration_never_duplicates_handlers():
    for _ in range(3):
        progress_logger()
    assert len(_marked_handlers(logging.getLogger(PROGRESS_LOGGER_NAME))) == 1


def test_progress_logger_is_always_on_and_does_not_propagate():
    progress = progress_logger()
    assert progress.name == PROGRESS_LOGGER_NAME
    assert progress.isEnabledFor(logging.INFO)
    assert progress.propagate is False
    # Self-configuring: the first call installs the one handler.
    assert len(_marked_handlers(progress)) == 1


def test_progress_lines_render_bare(capsys):
    # Drop handlers created by earlier tests so progress_logger() rebinds
    # a fresh one to the capsys-captured stderr.
    logger = logging.getLogger(PROGRESS_LOGGER_NAME)
    for handler in _marked_handlers(logger):
        logger.removeHandler(handler)
    progress_logger().info("ok    run-1  injected=0 (0.1s)")
    captured = capsys.readouterr()
    assert "ok    run-1  injected=0 (0.1s)" in captured.err
    assert "INFO" not in captured.err
