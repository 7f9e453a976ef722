"""Shared exception types."""


class ContractViolation(RuntimeError):
    """A runtime state-machine contract was broken.

    Raised for things like reading a clock backwards in hardware time or a
    rate-multiplier update driving the multiplier to zero or below.
    """


class DrivenRate(ContractViolation):
    """A rate multiplier driven to zero or below; args (rate, gain, gain_max, error, ticks)."""

    def text(self, step="gain", scale=1.0, since="{} hardware ticks", tick=1.0) -> str:
        """The failure, the gain over ``scale`` told as ``step`` and the ticks over ``tick``."""
        rate, gain, gain_max, error, ticks = self.args
        fit = "below its limit" if gain < gain_max else "mis-scaled; its limit is"
        return (f"rate multiplier driven to {rate} by {step} {gain / scale} ({fit} "
                f"{gain_max / scale}) on a sync error of {error} ticks, "
                f"{since.format(ticks / tick)} after the node's last update")

    __str__ = text


class InvalidRegimeError(ValueError):
    """Closed-form expression evaluated outside its region of validity."""
