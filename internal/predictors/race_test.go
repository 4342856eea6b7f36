//go:build race

package predictors

func init() { raceEnabled = true }
