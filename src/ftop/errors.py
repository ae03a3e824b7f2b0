"""Exception types shared across the package."""


class FtopError(Exception):
    pass


class SpaceError(FtopError, ValueError):
    """Invalid space data: broken invariant, unknown point, bad partition."""


class MapError(FtopError, ValueError):
    """Invalid map data: non-total assignment, non-monotone pair, endpoint mismatch."""


class ParseError(FtopError, ValueError):
    """Syntax or semantic error in the DSL, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position

    def __reduce__(self):
        # ``args`` holds only the formatted text, so rebuild from the parts
        return type(self), (self.message, self.position), self.__dict__


class CapacityError(FtopError, RuntimeError):
    """Requested bound exceeds what is computable at desk scale."""
