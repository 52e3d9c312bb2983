"""Exception hierarchy shared across the package, and the one rule that
turns an input file's bytes into text or into one of these errors."""


class EvogenError(Exception):
    """Base class for all domain errors."""


# -- model / addressing ------------------------------------------------------

class UnknownFeature(EvogenError):
    pass


class SelfTrace(EvogenError):
    pass


class UnrelatedRepositories(EvogenError):
    pass


class NotInTree(EvogenError):
    pass


class StaleRef(EvogenError):
    pass


class DanglingRef(EvogenError):
    pass


# -- operations --------------------------------------------------------------

class CannotRemoveRoot(EvogenError):
    pass


class BadIndex(EvogenError):
    pass


class NotMutable(EvogenError):
    pass


class DuplicateRepository(EvogenError):
    pass


class AlreadyPresent(EvogenError):
    pass


# -- transplantation ---------------------------------------------------------

class DonorIoError(EvogenError):
    pass


class NotModular(EvogenError):
    pass


class MissingDependency(EvogenError):
    pass


class ForbiddenInsertionPoint(EvogenError):
    pass


class SliceConflict(EvogenError):
    pass


class ManifestParseError(EvogenError):
    pass


# -- runner / history --------------------------------------------------------

class BadDistribution(EvogenError):
    pass


class InvalidInitialSystem(EvogenError):
    pass


class SnapshotIoError(EvogenError):
    pass


class LedgerIoError(EvogenError):
    pass


class ReplayDivergence(EvogenError):
    def __init__(self, record_index, message):
        super().__init__(f"replay diverged at record {record_index}: {message}")
        self.record_index = record_index


# -- decoding input files ----------------------------------------------------

def utf8_text(data: bytes, name: str) -> str:
    """A file's bytes decoded as UTF-8; raises SnapshotIoError naming the
    file `name` when they are not UTF-8 text.  Snapshots, donors, the ledger,
    the traces and the config file are all decoded through here."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotIoError(f"{name}: not UTF-8 text") from exc
