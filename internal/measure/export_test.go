package measure

// LogSizes exposes logSizes to the external tests that run whole
// campaigns (internal/core imports this package).
var LogSizes = logSizes
