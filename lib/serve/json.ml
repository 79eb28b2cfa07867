include Obs.Json
