//! The mean/σ summary format the paper uses for CUPTI readings ("average
//! (standard deviation)").

use std::fmt;

/// Mean and (population) standard deviation of a sample, formatted the way
/// the paper reports counter readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanStd {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
}

impl MeanStd {
    /// Computes mean/σ of the values; zero for an empty slice.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return MeanStd {
                mean: 0.0,
                std: 0.0,
            };
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        MeanStd {
            mean,
            std: var.sqrt(),
        }
    }
}

impl fmt::Display for MeanStd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}({:.2})", self.mean, self.std)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_known_values() {
        let ms = MeanStd::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((ms.mean - 5.0).abs() < 1e-12);
        assert!((ms.std - 2.0).abs() < 1e-12);
        assert_eq!(format!("{}", ms), "5.00(2.00)");
    }

    #[test]
    fn mean_std_empty_is_zero() {
        let ms = MeanStd::of(&[]);
        assert_eq!(ms.mean, 0.0);
        assert_eq!(ms.std, 0.0);
    }
}
